package tcp

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"

	"invalidb/internal/eventlayer"
	"invalidb/internal/metrics"
)

// ServerOptions tunes the broker.
type ServerOptions struct {
	// QueueSize is the per-session outbound buffer. Zero selects 4096.
	QueueSize int
	// Logf receives connection-level diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

// Server is the standalone event-layer broker. Every accepted connection is
// a session that may publish and subscribe; messages published by one
// session are routed to all sessions whose patterns match.
type Server struct {
	ln         net.Listener
	opts       ServerOptions
	mu         sync.RWMutex
	session    map[*session]struct{}
	sessionSeq atomic.Uint64
	closed     atomic.Bool
	wg         sync.WaitGroup

	// retained holds the last payload of every retained control-plane topic
	// (eventlayer.RetainedTopic: the ".control" suffix). It is replayed to
	// sessions that subscribe with a matching pattern later, so a process
	// joining after the coordinator published the current partition map
	// still converges without waiting for a re-publication.
	retMu    sync.Mutex
	retained map[string][]byte

	published atomic.Uint64
	delivered atomic.Uint64
	dropped   atomic.Uint64
}

// Serve starts a broker on the given address ("127.0.0.1:0" picks a free
// port). It returns once the listener is active; sessions are handled in
// background goroutines until Close.
func Serve(addr string, opts ServerOptions) (*Server, error) {
	if opts.QueueSize <= 0 {
		opts.QueueSize = 4096
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	s := &Server{ln: ln, opts: opts, session: map[*session]struct{}{}, retained: map[string][]byte{}}
	s.wg.Add(1)
	go s.acceptLoop()
	return s, nil
}

// Addr returns the broker's listen address.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// Stats returns cumulative publish/deliver/drop counters.
func (s *Server) Stats() (published, delivered, dropped uint64) {
	return s.published.Load(), s.delivered.Load(), s.dropped.Load()
}

// SessionStats describes one live session's slow-consumer losses, so a
// single stuck subscriber is distinguishable from broker-wide loss. ID is
// a small monotonic per-broker identifier assigned at accept time; Remote
// is the peer address it maps to (logged on the first drop).
type SessionStats struct {
	ID      uint64
	Remote  string
	Dropped uint64
}

// Sessions returns per-session drop counts for all live sessions.
func (s *Server) Sessions() []SessionStats {
	s.mu.RLock()
	out := make([]SessionStats, 0, len(s.session))
	for sess := range s.session {
		out = append(out, SessionStats{ID: sess.id, Remote: sess.remote, Dropped: sess.dropped.Load()})
	}
	s.mu.RUnlock()
	return out
}

// RegisterMetrics exports the broker's counters and a dynamic
// per-session drop family into the registry.
func (s *Server) RegisterMetrics(r *metrics.Registry) {
	r.Gauge("eventlayer.published", func() float64 { return float64(s.published.Load()) })
	r.Gauge("eventlayer.delivered", func() float64 { return float64(s.delivered.Load()) })
	r.Gauge("eventlayer.dropped", func() float64 { return float64(s.dropped.Load()) })
	r.Gauge("eventlayer.sessions", func() float64 {
		s.mu.RLock()
		defer s.mu.RUnlock()
		return float64(len(s.session))
	})
	// Series are keyed by the numeric session ID, not the remote address:
	// raw peer addresses carry ephemeral ports (a new series on every
	// reconnect) and dots/colons that collide with the dotted metric
	// namespace. The first-drop log line maps the ID back to the address.
	r.Collect(func(emit func(name string, v float64)) {
		for _, st := range s.Sessions() {
			if st.Dropped > 0 {
				emit(fmt.Sprintf("eventlayer.session.%d.dropped", st.ID), float64(st.Dropped))
			}
		}
	})
}

// Close stops accepting connections and tears down all sessions.
func (s *Server) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	err := s.ln.Close()
	s.mu.Lock()
	sessions := make([]*session, 0, len(s.session))
	for sess := range s.session {
		sessions = append(sessions, sess)
	}
	s.mu.Unlock()
	for _, sess := range sessions {
		sess.close()
	}
	s.wg.Wait()
	return err
}

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			if s.closed.Load() {
				return
			}
			s.opts.Logf("eventlayer/tcp: accept: %v", err)
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		sess := &session{
			srv:    s,
			id:     s.sessionSeq.Add(1),
			conn:   conn,
			remote: conn.RemoteAddr().String(),
			out:    make(chan frame, s.opts.QueueSize),
			done:   make(chan struct{}),
		}
		// Close sets closed before it collects the sessions under s.mu, so a
		// connection accepted concurrently is either collected or refused.
		s.mu.Lock()
		if s.closed.Load() {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.session[sess] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(2)
		go sess.readLoop()
		go sess.writeLoop()
	}
}

type session struct {
	srv     *Server
	id      uint64
	conn    net.Conn
	remote  string
	out     chan frame
	done    chan struct{}
	dropped atomic.Uint64

	mu       sync.Mutex
	patterns map[string]int // refcounted subscribe patterns
	closed   bool
}

// drop charges one slow-consumer loss to this session and the broker
// total, logging the first occurrence so a stuck subscriber is visible.
func (sess *session) drop() {
	if sess.dropped.Add(1) == 1 {
		sess.srv.opts.Logf("eventlayer/tcp: slow consumer session %d (%s): dropping messages", sess.id, sess.remote)
	}
	sess.srv.dropped.Add(1)
}

func (sess *session) close() {
	sess.mu.Lock()
	if sess.closed {
		sess.mu.Unlock()
		return
	}
	sess.closed = true
	close(sess.done)
	sess.mu.Unlock()
	_ = sess.conn.Close()
	sess.srv.mu.Lock()
	delete(sess.srv.session, sess)
	sess.srv.mu.Unlock()
}

func (sess *session) readLoop() {
	defer sess.srv.wg.Done()
	defer sess.close()
	r := bufio.NewReaderSize(sess.conn, 64<<10)
	for {
		f, err := readFrame(r)
		if err != nil {
			if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !isConnReset(err) {
				sess.srv.opts.Logf("eventlayer/tcp: read: %v", err)
			}
			return
		}
		switch f.op {
		case opPublish:
			sess.srv.route(f)
		case opSubscribe:
			sess.mu.Lock()
			if sess.patterns == nil {
				sess.patterns = map[string]int{}
			}
			for _, p := range f.patterns {
				sess.patterns[p]++
			}
			sess.mu.Unlock()
			sess.srv.replayRetained(sess, f.patterns)
		case opUnsubscribe:
			sess.mu.Lock()
			for _, p := range f.patterns {
				if sess.patterns[p] > 1 {
					sess.patterns[p]--
				} else {
					delete(sess.patterns, p)
				}
			}
			sess.mu.Unlock()
		case opPing:
			sess.enqueue(frame{op: opPong})
		case opPong:
			// keep-alive response; nothing to do
		}
	}
}

func (sess *session) writeLoop() {
	defer sess.srv.wg.Done()
	fw := newFrameWriter(sess.conn)
	for {
		select {
		case f := <-sess.out:
			if err := writeCoalesced(fw, sess.out, f); err != nil {
				sess.close()
				return
			}
		case <-sess.done:
			return
		}
	}
}

// matches reports whether the session subscribes to the topic.
func (sess *session) matches(topic string) bool {
	sess.mu.Lock()
	defer sess.mu.Unlock()
	for p := range sess.patterns {
		if eventlayer.MatchPattern(p, topic) {
			return true
		}
	}
	return false
}

// enqueue adds an outbound frame, dropping the oldest when the buffer is
// full (Redis pub/sub semantics: a slow subscriber loses messages rather
// than stalling publishers).
func (sess *session) enqueue(f frame) {
	select {
	case sess.out <- f:
		return
	default:
	}
	select {
	case <-sess.out:
		sess.drop()
	default:
	}
	select {
	case sess.out <- f:
	default:
		sess.drop()
	}
}

// route fans a published message out to all matching sessions.
func (s *Server) route(f frame) {
	s.published.Add(1)
	if eventlayer.RetainedTopic(f.topic) {
		s.retMu.Lock()
		s.retained[f.topic] = append([]byte(nil), f.payload...)
		s.retMu.Unlock()
	}
	msg := frame{op: opMessage, topic: f.topic, payload: f.payload}
	s.mu.RLock()
	for sess := range s.session {
		if sess.matches(f.topic) {
			sess.enqueue(msg)
			s.delivered.Add(1)
		}
	}
	s.mu.RUnlock()
}

// replayRetained delivers the retained payload of every control-plane topic
// matching the freshly subscribed patterns to that session only.
func (s *Server) replayRetained(sess *session, patterns []string) {
	s.retMu.Lock()
	defer s.retMu.Unlock()
	for topic, payload := range s.retained {
		for _, p := range patterns {
			if eventlayer.MatchPattern(p, topic) {
				sess.enqueue(frame{op: opMessage, topic: topic, payload: payload})
				s.delivered.Add(1)
				break
			}
		}
	}
}

func isConnReset(err error) bool {
	return err != nil && strings.Contains(err.Error(), "connection reset")
}
