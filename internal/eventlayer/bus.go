// Package eventlayer implements InvaliDB's asynchronous message broker
// (paper Figure 1, "event layer"). The broker is the only channel between
// application servers and the InvaliDB cluster; it treats payloads as
// entirely opaque bytes and offers fire-and-forget topic pub/sub with
// bounded per-subscriber buffers — the semantics of the Redis pub/sub layer
// the prototype used. Two implementations ship: the in-process MemBus and a
// TCP broker (sub-package tcp) for multi-process deployments.
package eventlayer

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
)

// Message is a payload delivered on a topic.
type Message struct {
	Topic   string
	Payload []byte
}

// Bus is the pub/sub abstraction the rest of the system programs against.
type Bus interface {
	// Publish delivers the payload to every current subscriber of the topic.
	// Delivery is asynchronous and fire-and-forget: subscribers that joined
	// later, or whose buffers are full, miss the message.
	Publish(topic string, payload []byte) error
	// Subscribe registers interest in one or more topic patterns. A pattern
	// is either a literal topic or a prefix followed by '*' ("notify.t1.*").
	Subscribe(patterns ...string) (Subscription, error)
	// Close shuts the bus down; subsequent operations fail.
	Close() error
}

// Subscription is a stream of messages for a set of topic patterns.
type Subscription interface {
	// C is the receive channel. It is closed when the subscription ends.
	C() <-chan Message
	// Dropped reports how many messages were discarded because the
	// subscriber did not keep up.
	Dropped() uint64
	// Close cancels the subscription.
	Close() error
}

// MatchPattern reports whether a topic matches a subscription pattern: a
// literal topic, or a prefix followed by '*'.
func MatchPattern(pattern, topic string) bool {
	if p, ok := strings.CutSuffix(pattern, "*"); ok {
		return strings.HasPrefix(topic, p)
	}
	return pattern == topic
}

// RetainedTopic reports whether a topic is retained: the broker keeps the
// last payload published on it and delivers that payload to every later
// subscriber whose patterns match. Retention is reserved for control-plane
// topics (the ".control" suffix, e.g. the coordinator's partition-map
// topic): a process that starts after the coordinator published the current
// map must still converge without waiting for a re-publication. Data topics
// stay fire-and-forget.
func RetainedTopic(topic string) bool {
	return strings.HasSuffix(topic, ".control")
}

// MemBusOptions tunes the in-process bus.
type MemBusOptions struct {
	// BufferSize is the per-subscriber queue capacity. Zero selects 4096.
	BufferSize int
}

// MemBus is the in-process Bus: a goroutine-safe topic router with bounded,
// drop-oldest-on-overflow subscriber queues. Dropping (rather than blocking
// the publisher) mirrors Redis pub/sub back-pressure behaviour and keeps a
// slow subscriber from stalling the cluster.
type MemBus struct {
	mu     sync.RWMutex
	subs   map[*memSub]struct{}
	closed bool
	buf    int

	// retained holds the last payload of every retained topic (see
	// RetainedTopic), replayed to later subscribers at Subscribe time.
	retMu    sync.Mutex
	retained map[string][]byte
}

// NewMemBus creates an in-process bus.
func NewMemBus(opts MemBusOptions) *MemBus {
	if opts.BufferSize <= 0 {
		opts.BufferSize = 4096
	}
	return &MemBus{subs: map[*memSub]struct{}{}, buf: opts.BufferSize, retained: map[string][]byte{}}
}

// ErrBusClosed is returned by operations on a closed bus.
var ErrBusClosed = fmt.Errorf("eventlayer: bus closed")

// Publish implements Bus.
func (b *MemBus) Publish(topic string, payload []byte) error {
	b.mu.RLock()
	if b.closed {
		b.mu.RUnlock()
		return ErrBusClosed
	}
	if RetainedTopic(topic) {
		b.retMu.Lock()
		b.retained[topic] = append([]byte(nil), payload...)
		b.retMu.Unlock()
	}
	msg := Message{Topic: topic, Payload: payload}
	for s := range b.subs {
		if s.matches(topic) {
			s.deliver(msg)
		}
	}
	b.mu.RUnlock()
	return nil
}

// Subscribe implements Bus.
func (b *MemBus) Subscribe(patterns ...string) (Subscription, error) {
	if len(patterns) == 0 {
		return nil, fmt.Errorf("eventlayer: subscribe with no patterns")
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, ErrBusClosed
	}
	s := &memSub{
		bus:      b,
		patterns: append([]string(nil), patterns...),
		ch:       make(chan Message, b.buf),
	}
	b.subs[s] = struct{}{}
	// Replay retained control-plane payloads the new subscriber matches, so
	// a late joiner sees the coordinator's current state immediately.
	b.retMu.Lock()
	for topic, payload := range b.retained {
		if s.matches(topic) {
			s.deliver(Message{Topic: topic, Payload: payload})
		}
	}
	b.retMu.Unlock()
	return s, nil
}

// Close implements Bus.
func (b *MemBus) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil
	}
	b.closed = true
	for s := range b.subs {
		s.closeLocked()
	}
	b.subs = map[*memSub]struct{}{}
	return nil
}

type memSub struct {
	bus      *MemBus
	patterns []string
	ch       chan Message
	dropped  atomic.Uint64

	mu     sync.Mutex
	closed bool
}

func (s *memSub) matches(topic string) bool {
	for _, p := range s.patterns {
		if MatchPattern(p, topic) {
			return true
		}
	}
	return false
}

// deliver enqueues without ever blocking the publisher: when the queue is
// full the oldest message is dropped to make room, and the drop is counted.
func (s *memSub) deliver(msg Message) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	select {
	case s.ch <- msg:
		return
	default:
	}
	select {
	case <-s.ch:
		s.dropped.Add(1)
	default:
	}
	select {
	case s.ch <- msg:
	default:
		s.dropped.Add(1)
	}
}

func (s *memSub) C() <-chan Message { return s.ch }

func (s *memSub) Dropped() uint64 { return s.dropped.Load() }

func (s *memSub) Close() error {
	s.bus.mu.Lock()
	delete(s.bus.subs, s)
	s.bus.mu.Unlock()
	s.mu.Lock()
	s.closeInner()
	s.mu.Unlock()
	return nil
}

// closeLocked is called by MemBus.Close with bus.mu held.
func (s *memSub) closeLocked() {
	s.mu.Lock()
	s.closeInner()
	s.mu.Unlock()
}

func (s *memSub) closeInner() {
	if !s.closed {
		s.closed = true
		close(s.ch)
	}
}
