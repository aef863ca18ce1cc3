package tcp

import (
	"bufio"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/eventlayer"
)

// ClientOptions tunes a broker client.
type ClientOptions struct {
	// BufferSize is the per-subscription local queue. Zero selects 4096.
	BufferSize int
	// SendQueue is the outbound frame queue shared by publishes and
	// control frames; the write loop drains it and flushes once per
	// drain, coalescing syscalls under load. Zero selects 1024.
	SendQueue int
	// ReconnectInterval is the delay between reconnection attempts after the
	// broker connection drops. Zero selects 250ms.
	ReconnectInterval time.Duration
	// DialTimeout bounds each connection attempt. Zero selects 2s.
	DialTimeout time.Duration
	// PublishRetries is how many extra attempts Publish makes after a
	// failed send, waiting for the reconnect loop to restore the broker
	// connection between attempts. Zero selects 3; negative disables
	// retries (fail fast).
	PublishRetries int
	// PublishBackoff is the wait before the first retry; it doubles per
	// attempt (bounded exponential backoff). Zero selects 10ms.
	PublishBackoff time.Duration
}

// connState is one live broker connection: its socket, its outbound frame
// queue, and a closed channel latched when the connection is severed. The
// write loop owns the socket's outbound half; everyone else only
// enqueues.
type connState struct {
	conn   net.Conn
	out    chan frame
	closed chan struct{}
	once   sync.Once
}

// shutdown severs the connection exactly once: the closed channel wakes
// blocked publishers and the write loop, closing the socket wakes the
// read loop.
func (cs *connState) shutdown() {
	cs.once.Do(func() {
		close(cs.closed)
		_ = cs.conn.Close()
	})
}

// Client connects to a tcp.Server broker and implements eventlayer.Bus.
// The connection is re-established automatically after failures and all
// active subscriptions are replayed to the broker on reconnect; messages
// published by others while disconnected are lost (fire-and-forget pub/sub,
// the same guarantee the in-process bus gives a late subscriber).
//
// The broker sends each message once per connection; the client
// demultiplexes it to its local subscriptions through an in-process MemBus,
// which also replays retained control-plane payloads to every later local
// subscriber — the broker replays them only when a pattern is first
// subscribed on the connection.
type Client struct {
	addr  string
	opts  ClientOptions
	local *eventlayer.MemBus

	mu       sync.Mutex
	cs       *connState
	patterns map[string]int // broker subscriptions, refcounted by local ones
	closed   bool

	done chan struct{}
	wg   sync.WaitGroup
}

// Dial connects to a broker.
func Dial(addr string, opts ClientOptions) (*Client, error) {
	if opts.BufferSize <= 0 {
		opts.BufferSize = 4096
	}
	if opts.SendQueue <= 0 {
		opts.SendQueue = 1024
	}
	if opts.ReconnectInterval <= 0 {
		opts.ReconnectInterval = 250 * time.Millisecond
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 2 * time.Second
	}
	if opts.PublishRetries == 0 {
		opts.PublishRetries = 3
	} else if opts.PublishRetries < 0 {
		opts.PublishRetries = 0
	}
	if opts.PublishBackoff <= 0 {
		opts.PublishBackoff = 10 * time.Millisecond
	}
	c := &Client{
		addr:     addr,
		opts:     opts,
		local:    eventlayer.NewMemBus(eventlayer.MemBusOptions{BufferSize: opts.BufferSize}),
		patterns: map[string]int{},
		done:     make(chan struct{}),
	}
	conn, err := net.DialTimeout("tcp", addr, opts.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("eventlayer/tcp: dial %s: %w", addr, err)
	}
	c.startConn(conn)
	return c, nil
}

// startConn installs conn as the live connection and starts its read and
// write loops. Caller must guarantee no other connection is live.
func (c *Client) startConn(conn net.Conn) {
	cs := &connState{
		conn:   conn,
		out:    make(chan frame, c.opts.SendQueue),
		closed: make(chan struct{}),
	}
	c.cs = cs
	c.wg.Add(2)
	go c.readLoop(cs)
	go c.writeLoop(cs)
}

// Publish implements eventlayer.Bus. A failed send (no connection, or a
// severed connection before the frame was queued) is retried up to
// PublishRetries times with exponential backoff, giving the reconnect
// loop a window to restore the broker link before the publish is
// reported lost.
func (c *Client) Publish(topic string, payload []byte) error {
	var err error
	for attempt := 0; ; attempt++ {
		if err = c.tryPublish(topic, payload); err == nil || err == eventlayer.ErrBusClosed {
			return err
		}
		if attempt >= c.opts.PublishRetries {
			return err
		}
		backoff := c.opts.PublishBackoff << uint(attempt)
		if max := 32 * c.opts.PublishBackoff; backoff > max {
			backoff = max
		}
		select {
		case <-c.done:
			return eventlayer.ErrBusClosed
		case <-time.After(backoff):
		}
	}
}

// tryPublish queues one publish frame on the live connection's outbound
// queue. It blocks when the queue is full (publisher backpressure) but
// never holds c.mu across the wait, and it fails — for the retry loop to
// handle — when the connection is severed before the frame is accepted.
func (c *Client) tryPublish(topic string, payload []byte) error {
	if len(topic) > 0xFFFF {
		return fmt.Errorf("eventlayer/tcp: topic too long (%d bytes)", len(topic))
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return eventlayer.ErrBusClosed
	}
	cs := c.cs
	c.mu.Unlock()
	if cs == nil {
		return fmt.Errorf("eventlayer/tcp: not connected")
	}
	select {
	case cs.out <- frame{op: opPublish, topic: topic, payload: payload}:
		return nil
	case <-cs.closed:
		return fmt.Errorf("eventlayer/tcp: publish: connection lost")
	case <-c.done:
		return eventlayer.ErrBusClosed
	}
}

// Subscribe implements eventlayer.Bus.
func (c *Client) Subscribe(patterns ...string) (eventlayer.Subscription, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("eventlayer/tcp: subscribe with no patterns")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return nil, eventlayer.ErrBusClosed
	}
	// The local subscription exists before the broker is asked for a fresh
	// pattern, so the retained payloads the broker replays reach it.
	local, err := c.local.Subscribe(patterns...)
	if err != nil {
		return nil, err
	}
	s := &subscription{Subscription: local, client: c, patterns: append([]string(nil), patterns...)}
	var fresh []string
	for _, p := range patterns {
		c.patterns[p]++
		if c.patterns[p] == 1 {
			fresh = append(fresh, p)
		}
	}
	if len(fresh) > 0 {
		c.enqueueControlLocked(frame{op: opSubscribe, patterns: fresh})
	}
	return s, nil
}

// enqueueControlLocked queues a control frame without blocking. A full
// queue severs the connection instead of waiting — blocking here would
// deadlock against the write loop's drop path, and the reconnect loop
// replays the complete pattern set anyway. Caller holds c.mu.
func (c *Client) enqueueControlLocked(f frame) {
	if c.cs == nil {
		return
	}
	select {
	case c.cs.out <- f:
	default:
		c.dropConnLocked()
	}
}

// Close implements eventlayer.Bus.
func (c *Client) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	close(c.done)
	if c.cs != nil {
		c.cs.shutdown()
		c.cs = nil
	}
	c.mu.Unlock()
	_ = c.local.Close()
	c.wg.Wait()
	return nil
}

// dropConn severs cs and, if it is still the live connection, triggers
// the reconnect loop.
func (c *Client) dropConn(cs *connState) {
	c.mu.Lock()
	if c.cs == cs {
		c.dropConnLocked()
	} else {
		cs.shutdown()
	}
	c.mu.Unlock()
}

// dropConnLocked severs the current connection and triggers the reconnect
// loop. Caller holds c.mu.
func (c *Client) dropConnLocked() {
	if c.cs != nil {
		c.cs.shutdown()
		c.cs = nil
	}
	if !c.closed {
		c.wg.Add(1)
		go c.reconnectLoop()
	}
}

func (c *Client) reconnectLoop() {
	defer c.wg.Done()
	for {
		select {
		case <-c.done:
			return
		case <-time.After(c.opts.ReconnectInterval):
		}
		conn, err := net.DialTimeout("tcp", c.addr, c.opts.DialTimeout)
		if err != nil {
			continue
		}
		c.mu.Lock()
		if c.closed || c.cs != nil {
			c.mu.Unlock()
			_ = conn.Close()
			return
		}
		c.startConn(conn)
		pats := make([]string, 0, len(c.patterns))
		for p := range c.patterns {
			pats = append(pats, p)
		}
		if len(pats) > 0 {
			// The queue is freshly created and empty, so the pattern
			// replay is always accepted.
			c.enqueueControlLocked(frame{op: opSubscribe, patterns: pats})
		}
		c.mu.Unlock()
		return
	}
}

// writeLoop drains the outbound queue onto the socket: each wakeup
// writes every queued frame through the reusable frame writer and
// flushes exactly once when the queue is empty again.
func (c *Client) writeLoop(cs *connState) {
	defer c.wg.Done()
	fw := newFrameWriter(cs.conn)
	for {
		select {
		case <-cs.closed:
			return
		case f := <-cs.out:
			if err := writeCoalesced(fw, cs.out, f); err != nil {
				c.dropConn(cs)
				return
			}
		}
	}
}

func (c *Client) readLoop(cs *connState) {
	defer c.wg.Done()
	r := bufio.NewReaderSize(cs.conn, 64<<10)
	for {
		f, err := readFrame(r)
		if err != nil {
			c.dropConn(cs)
			return
		}
		if f.op == opMessage {
			_ = c.local.Publish(f.topic, f.payload)
		}
	}
}

// subscription is a local MemBus subscription holding a reference on each
// of its patterns' broker subscriptions.
type subscription struct {
	eventlayer.Subscription
	client   *Client
	patterns []string
	closed   atomic.Bool
}

// Close ends the local subscription and releases its broker patterns; the
// broker is told to unsubscribe the ones no other local subscription holds.
func (s *subscription) Close() error {
	err := s.Subscription.Close()
	if !s.closed.CompareAndSwap(false, true) {
		return err
	}
	c := s.client
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return err
	}
	var gone []string
	for _, p := range s.patterns {
		if c.patterns[p] > 1 {
			c.patterns[p]--
		} else {
			delete(c.patterns, p)
			gone = append(gone, p)
		}
	}
	if len(gone) > 0 {
		c.enqueueControlLocked(frame{op: opUnsubscribe, patterns: gone})
	}
	return err
}
