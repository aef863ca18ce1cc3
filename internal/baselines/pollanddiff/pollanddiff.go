// Package pollanddiff implements the poll-and-diff real-time query mechanism
// (paper §3.1), the approach of Meteor's default mode: every subscription
// periodically re-executes its query against the database ("poll") and
// compares the fresh result with the last known one ("diff") to compute
// change events. It inherits the database's full query expressiveness but
// (1) staleness is bounded only by the poll interval and (2) every active
// subscription adds pull-query load — 1 000 subscriptions at Meteor's 10 s
// default interval mean 100 queries/s against the database, which is what
// makes the approach collapse under many concurrent real-time queries.
package pollanddiff

import (
	"fmt"
	"sync"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// Options tunes the engine.
type Options struct {
	// Interval is the poll period (Meteor's default is 10s). Default 10s.
	Interval time.Duration
	// EventBuffer is the per-subscription event queue. Default 1024.
	EventBuffer int
}

// Event is one result change detected by a diff.
type Event struct {
	Type core.MatchType
	Key  string
	Doc  document.Document
	// Index is the new position for sorted queries, -1 otherwise.
	Index int
}

// Engine runs poll-and-diff subscriptions over a database.
type Engine struct {
	db   *storage.DB
	opts Options

	mu     sync.Mutex
	subs   map[*Subscription]struct{}
	closed bool

	// DBQueries counts pull queries issued by polling — the overhead metric
	// the paper quotes.
	DBQueries *metrics.Int
}

// New creates a poll-and-diff engine.
func New(db *storage.DB, opts Options) *Engine {
	if opts.Interval <= 0 {
		opts.Interval = 10 * time.Second
	}
	if opts.EventBuffer <= 0 {
		opts.EventBuffer = 1024
	}
	return &Engine{
		db:        db,
		opts:      opts,
		subs:      map[*Subscription]struct{}{},
		DBQueries: &metrics.Int{},
	}
}

// Subscription is one active poll-and-diff real-time query.
type Subscription struct {
	e      *Engine
	q      *query.Query
	events chan Event

	mu     sync.Mutex
	known  map[string]uint64 // key -> version
	order  []string          // previous result order (sorted queries)
	closed bool
	done   chan struct{}
}

// Subscribe activates a real-time query: the initial result is delivered
// synchronously via Result; change events appear on C after each poll.
func (e *Engine) Subscribe(spec query.Spec) (*Subscription, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, fmt.Errorf("pollanddiff: engine closed")
	}
	sub := &Subscription{
		e:      e,
		q:      q,
		events: make(chan Event, e.opts.EventBuffer),
		known:  map[string]uint64{},
		done:   make(chan struct{}),
	}
	e.subs[sub] = struct{}{}
	e.mu.Unlock()

	// Initial poll seeds the known state without emitting events.
	if _, err := sub.poll(false); err != nil {
		sub.Close()
		return nil, err
	}
	go sub.loop()
	return sub, nil
}

// C streams change events.
func (s *Subscription) C() <-chan Event { return s.events }

// Close stops polling.
func (s *Subscription) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	close(s.done)
	close(s.events)
	s.mu.Unlock()
	s.e.mu.Lock()
	delete(s.e.subs, s)
	s.e.mu.Unlock()
}

// Close stops the engine and all subscriptions.
func (e *Engine) Close() {
	e.mu.Lock()
	e.closed = true
	subs := make([]*Subscription, 0, len(e.subs))
	for s := range e.subs {
		subs = append(subs, s)
	}
	e.mu.Unlock()
	for _, s := range subs {
		s.Close()
	}
}

// ActiveSubscriptions reports the number of live subscriptions.
func (e *Engine) ActiveSubscriptions() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.subs)
}

func (s *Subscription) loop() {
	ticker := time.NewTicker(s.e.opts.Interval)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			if _, err := s.poll(true); err != nil {
				return
			}
		}
	}
}

// poll re-executes the query and, when emit is set, diffs against the
// previous result. This is steps (1)-(5) from §3.1: the database assembles
// and serializes the result, the server deserializes it and analyzes it for
// relevant changes.
func (s *Subscription) poll(emit bool) ([]storage.Entry, error) {
	s.e.DBQueries.Inc()
	entries, err := s.e.db.C(s.q.Collection).FindEntries(s.q)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return entries, nil
	}
	fresh := make(map[string]uint64, len(entries))
	freshOrder := make([]string, 0, len(entries))
	for _, e := range entries {
		fresh[e.Key] = e.Version
		freshOrder = append(freshOrder, e.Key)
	}
	if emit {
		for key := range s.known {
			if _, still := fresh[key]; !still {
				s.push(Event{Type: core.MatchRemove, Key: key, Index: -1})
			}
		}
		prevIdx := map[string]int{}
		for i, k := range s.order {
			prevIdx[k] = i
		}
		for i, e := range entries {
			idx := -1
			if s.q.Ordered() {
				idx = i
			}
			prevVer, was := s.known[e.Key]
			switch {
			case !was:
				s.push(Event{Type: core.MatchAdd, Key: e.Key, Doc: e.Doc, Index: idx})
			case prevVer != e.Version:
				if j, ok := prevIdx[e.Key]; s.q.Ordered() && ok && j != i {
					s.push(Event{Type: core.MatchChangeIndex, Key: e.Key, Doc: e.Doc, Index: idx})
				} else {
					s.push(Event{Type: core.MatchChange, Key: e.Key, Doc: e.Doc, Index: idx})
				}
			}
		}
	}
	s.known = fresh
	s.order = freshOrder
	return entries, nil
}

// push never blocks the poll loop; a lagging consumer loses the oldest
// event.
func (s *Subscription) push(ev Event) {
	select {
	case s.events <- ev:
		return
	default:
	}
	select {
	case <-s.events:
	default:
	}
	select {
	case s.events <- ev:
	default:
	}
}
