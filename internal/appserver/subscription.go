package appserver

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/query"
)

// EventType classifies subscription events delivered to end users.
type EventType uint8

const (
	// EventInitial carries the full initial query result; it is always the
	// first event of a subscription (paper §5: "the first notification
	// message for any real-time query contains the initial result").
	EventInitial EventType = iota + 1
	// EventAdd reports a new result member.
	EventAdd
	// EventChange reports an updated result member.
	EventChange
	// EventChangeIndex reports an updated member that changed position
	// (sorted queries only).
	EventChangeIndex
	// EventRemove reports a member that left the result.
	EventRemove
	// EventError terminates the subscription (e.g. a failed query renewal);
	// clients may re-subscribe or fall back to pull-based queries.
	EventError
	// EventDisconnected reports that cluster heartbeats stopped (§5.1). The
	// subscription stays alive; the server re-subscribes automatically once
	// heartbeats resume. Clients may fall back to pull-based queries in the
	// meantime.
	EventDisconnected
	// EventReconnected carries the full current result in Docs, superseding
	// every event delivered before it: after a completed automatic
	// re-subscription (heartbeat outage, restarted cluster node, a partition
	// map that moved the query without a migration backfill), or in place
	// of the events a consumer missed by falling more than
	// Options.EventBuffer behind.
	EventReconnected
)

// String names the event type.
func (e EventType) String() string {
	switch e {
	case EventInitial:
		return "initial"
	case EventAdd:
		return "add"
	case EventChange:
		return "change"
	case EventChangeIndex:
		return "changeIndex"
	case EventRemove:
		return "remove"
	case EventError:
		return "error"
	case EventDisconnected:
		return "disconnected"
	case EventReconnected:
		return "reconnected"
	default:
		return fmt.Sprintf("EventType(%d)", uint8(e))
	}
}

// Event is one subscription update pushed to the end user.
type Event struct {
	Type EventType
	// Key and Doc describe the affected record (Doc is nil on removes).
	Key string
	Doc document.Document
	// Index is the record's position in the visible result for sorted
	// queries, -1 otherwise.
	Index int
	// Docs carries the full result for EventInitial and EventReconnected.
	Docs []document.Document
	// Err is set for EventError.
	Err error
}

// Subscription is one end-user real-time query subscription. Events stream
// on C; Result returns the maintained current result at any time.
type Subscription struct {
	server  *Server
	id      string
	q       *query.Query
	hash    uint64
	ordered bool
	slack   int

	mu     sync.Mutex
	order  []string // visible window, in result order (sorted queries)
	docs   map[string]document.Document
	seen   map[string]*originState // per-origin notification dedup state
	vers   map[string]uint64       // per-key last applied version (unsorted)
	closed bool
	// backfilling is true while a backfill assembles the initial result:
	// notifications fold into the maintained state but no events reach the
	// client until admit() delivers EventInitial (DESIGN.md §12).
	backfilling bool
	// place is where the query row was last installed (node, slot, column
	// count, epoch); reinstall compares it against the newest partition map
	// to decide whether the subscription must move (DESIGN.md §13).
	place placement

	// The event queue (DESIGN.md §14.3): events is a small fixed handoff to
	// the consumer; what does not fit waits in backlog, which is empty while
	// the consumer keeps up, grows with its lag and holds at most bound
	// events. While draining is set a transient goroutine owns the sending
	// side of events and every push queues behind it; done wakes it on Close.
	events   chan Event
	backlog  []Event
	bound    int
	draining bool
	done     chan struct{}
	dropped  atomic.Uint64
}

// handoffSlots sizes the channel behind C: enough that a consumer scheduled
// a beat after the notification loop never meets a full channel (the
// benchmark's deepest burst is 16 writes in flight), small enough that an
// idle subscription costs about a kilobyte instead of the 80 KiB a channel
// of EventBuffer slots reserved.
const handoffSlots = 16

// newSubscription builds the client-side state of one subscription to q; the
// caller attaches it and installs or backfills the initial result.
func (s *Server) newSubscription(q *query.Query) *Subscription {
	return &Subscription{
		server:  s,
		id:      s.newSubscriptionID(),
		q:       q,
		hash:    core.TenantQueryHash(s.opts.Tenant, q),
		ordered: q.Ordered(),
		slack:   s.opts.Slack,
		docs:    map[string]document.Document{},
		events:  make(chan Event, handoffSlots),
		bound:   s.opts.EventBuffer,
		done:    make(chan struct{}),
	}
}

// originState tracks the notification sequence stream of one emitting node
// instance (Notification.Origin) so redelivered notifications can be
// suppressed. Origins embed the task incarnation, so a same-cluster restart
// opens a fresh stream instead of colliding with this one. Origins are NOT
// unique across activations, however: a replacement cluster's tasks start
// over at incarnation 0, and a query whose node state TTL-expired is
// recreated with a reset seq counter under the same origin string. That is
// why installLocked discards all origin state on every bootstrap — the
// bootstrap supersedes every prior delivery, so stale seq history must not
// gate the new stream.
type originState struct {
	last   uint64              // highest sequence number seen
	recent map[uint64]struct{} // seq numbers seen near last (pruned)
}

// ID returns the client-visible subscription identifier.
func (sub *Subscription) ID() string { return sub.id }

// Hash returns the tenant-scoped fixed64 query hash the subscription is
// registered under with the cluster. Two subscriptions to semantically
// identical queries share the hash, which is what makes it the dedup key
// for the gateway's shared fan-out engine.
func (sub *Subscription) Hash() uint64 { return sub.hash }

// epoch is the partition-map epoch the subscription is installed under,
// stamped on its control envelopes (zero = "current", static clusters).
func (sub *Subscription) epoch() uint64 {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.place.epoch
}

func (sub *Subscription) getPlace() placement {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.place
}

func (sub *Subscription) setPlace(p placement) {
	sub.mu.Lock()
	sub.place = p
	sub.mu.Unlock()
}

// Query returns the subscribed query.
func (sub *Subscription) Query() *query.Query { return sub.q }

// C streams subscription events. The channel closes when the subscription
// ends.
func (sub *Subscription) C() <-chan Event { return sub.events }

// Dropped reports events shed because the consumer fell more than
// Options.EventBuffer events behind; one event carrying the full result
// stands in for them (see pushLocked).
func (sub *Subscription) Dropped() uint64 { return sub.dropped.Load() }

// Close cancels the subscription with the cluster and closes the event
// stream. Events still queued behind the handoff are discarded.
func (sub *Subscription) Close() error {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return nil
	}
	sub.closed = true
	close(sub.done)
	if !sub.draining {
		close(sub.events) // otherwise the drainer is the sender, and closes
	}
	sub.mu.Unlock()
	sub.server.detach(sub)
	sub.server.cancel(sub)
	return nil
}

// Result returns the current maintained result: in window order for sorted
// queries, in primary-key order otherwise.
func (sub *Subscription) Result() []document.Document {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	return sub.resultLocked()
}

// resultLocked is Result for callers holding sub.mu. The slice is fresh; the
// documents are the maintained ones, shared read-only.
func (sub *Subscription) resultLocked() []document.Document {
	if sub.ordered {
		out := make([]document.Document, 0, len(sub.order))
		for _, key := range sub.order {
			if d, ok := sub.docs[key]; ok {
				out = append(out, d)
			}
		}
		return out
	}
	keys := make([]string, 0, len(sub.docs))
	for k := range sub.docs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	out := make([]document.Document, 0, len(keys))
	for _, k := range keys {
		out = append(out, sub.docs[k])
	}
	return out
}

// installInitial seeds the client-side state with the initial result and
// emits the EventInitial. For sorted queries the bootstrap entries cover the
// rewritten window; the visible result applies the original offset/limit.
func (sub *Subscription) installInitial(entries []core.ResultEntry, seq uint64) {
	sub.mu.Lock()
	docs := sub.installLocked(entries, seq)
	sub.pushLocked(Event{Type: EventInitial, Docs: docs, Index: -1})
	sub.mu.Unlock()
}

// installLocked replaces the maintained state with a bootstrap result and
// returns the visible documents. Bootstrap versions are folded into the
// per-key version memory (never regressing it), so notifications older than
// the bootstrap stay suppressed. Per-origin seq dedup state is discarded:
// the bootstrap supersedes every prior delivery, and a re-subscription that
// is a fresh activation (replacement cluster, TTL-expired node state)
// restarts the same Origin's seq counter at zero — keeping the old history
// would silently drop the entire new stream. For unsorted queries a
// bootstrap row older than an already-applied notification does not regress
// the maintained document: the newer applied state wins (the cluster's
// retention replay of that newer image is dropped by staleLocked, so
// installing the older row would stick). Callers hold sub.mu.
func (sub *Subscription) installLocked(entries []core.ResultEntry, seq uint64) []document.Document {
	prev := sub.docs
	sub.docs = map[string]document.Document{}
	sub.order = nil
	sub.seen = nil
	if sub.vers == nil {
		sub.vers = map[string]uint64{}
	}
	for _, e := range entries {
		if e.Version > sub.vers[e.Key] {
			sub.vers[e.Key] = e.Version
		}
	}
	visible := entries
	if sub.ordered {
		start := sub.q.Offset
		if start > len(visible) {
			start = len(visible)
		}
		end := len(visible)
		if sub.q.Limit > 0 && start+sub.q.Limit < end {
			end = start + sub.q.Limit
		}
		visible = visible[start:end]
	}
	docs := make([]document.Document, 0, len(visible))
	for _, e := range visible {
		if !sub.ordered && sub.vers[e.Key] > e.Version {
			// A newer notification for this key was applied after the
			// bootstrap query ran. Keep its outcome: the maintained document
			// if the key survived, nothing if it was removed.
			if d, ok := prev[e.Key]; ok {
				sub.docs[e.Key] = d
				docs = append(docs, d)
			}
			continue
		}
		d := sub.q.Project(e.Doc)
		sub.docs[e.Key] = d
		if sub.ordered {
			sub.order = append(sub.order, e.Key)
		}
		docs = append(docs, d)
	}
	// A maintained key still missing is absent from the bootstrap, read at
	// sequence seq: an add the read predates iff its version is newer.
	for key, d := range prev {
		if _, ok := sub.docs[key]; !ok && !sub.ordered && sub.vers[key] > seq {
			sub.docs[key] = d
			docs = append(docs, d)
		}
	}
	return docs
}

// reset replaces the maintained result after an automatic re-subscription
// (read at sequence seq) and emits EventReconnected with the full result.
func (sub *Subscription) reset(entries []core.ResultEntry, seq uint64) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	docs := sub.installLocked(entries, seq)
	sub.pushLocked(Event{Type: EventReconnected, Docs: docs, Index: -1})
}

// apply folds a cluster notification into the maintained result and emits
// the corresponding event, under one hold of sub.mu: what the queue holds and
// what the maintained result says never disagree, which is what lets an
// overflowing queue be replaced by the result itself. Sorted-query
// notifications follow the window-diff protocol: removes by key, then
// adds/changeIndexes at final indexes ascending, then in-place changes.
func (sub *Subscription) apply(n *core.Notification) {
	sub.mu.Lock()
	if sub.closed {
		sub.mu.Unlock()
		return
	}
	if !sub.freshLocked(n.Origin, n.Seq) || sub.staleLocked(n.Key, n.Version) {
		sub.mu.Unlock()
		sub.server.mDedupDrops.Inc()
		return
	}
	ev := Event{Key: n.Key, Doc: n.Doc, Index: n.Index}
	switch n.Type {
	case core.MatchAdd:
		ev.Type = EventAdd
		sub.docs[n.Key] = n.Doc
		if sub.ordered {
			sub.insertAt(n.Key, n.Index)
		}
	case core.MatchChange:
		ev.Type = EventChange
		sub.docs[n.Key] = n.Doc
	case core.MatchChangeIndex:
		ev.Type = EventChangeIndex
		sub.docs[n.Key] = n.Doc
		if sub.ordered {
			sub.removeKey(n.Key)
			sub.insertAt(n.Key, n.Index)
		}
	case core.MatchRemove:
		ev.Type = EventRemove
		delete(sub.docs, n.Key)
		if sub.ordered {
			sub.removeKey(n.Key)
		}
	default:
		sub.mu.Unlock()
		return
	}
	// While a backfill is in progress the delta is only folded into the
	// maintained state (in-window writes supersede chunk rows via the version
	// guard): the client sees nothing before EventInitial.
	if !sub.backfilling {
		sub.pushLocked(ev)
	}
	sub.mu.Unlock()
}

// mergeChunk folds one backfill chunk into the maintained state under the
// never-regress rule: a chunk row older than an already-applied in-window
// delta is discarded — the live stream delivered fresher state (including
// deletes, whose version the guard retains). During a migration backfill
// the subscription is already admitted; a chunk row that wins there is
// state the live stream never delivered (typically a write that fell into
// the ownership gap of a resize), so it is surfaced as an event.
func (sub *Subscription) mergeChunk(entries []core.ResultEntry) {
	sub.mu.Lock()
	if sub.vers == nil {
		sub.vers = map[string]uint64{}
	}
	for _, e := range entries {
		if e.Version <= sub.vers[e.Key] {
			continue
		}
		sub.vers[e.Key] = e.Version
		_, had := sub.docs[e.Key]
		d := sub.q.Project(e.Doc)
		sub.docs[e.Key] = d
		if !sub.backfilling {
			ev := Event{Type: EventChange, Key: e.Key, Doc: d, Index: -1}
			if !had {
				ev.Type = EventAdd
			}
			sub.pushLocked(ev)
		}
	}
	sub.mu.Unlock()
}

// reconcileMigration finishes a migration backfill: a maintained document
// that appeared in no chunk and was last touched before the backfill's
// first watermark existed before the scan began yet was absent from it —
// it was deleted (or stopped matching) during the ownership gap, so it is
// removed now. Keys touched at or after the first watermark are governed
// by the live stream and left alone.
func (sub *Subscription) reconcileMigration(chunkKeys map[string]struct{}, firstLow uint64) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	if sub.closed {
		return
	}
	for key := range sub.docs {
		if _, ok := chunkKeys[key]; ok {
			continue
		}
		if sub.vers[key] >= firstLow {
			continue
		}
		delete(sub.docs, key)
		sub.pushLocked(Event{Type: EventRemove, Key: key, Index: -1})
	}
}

// admit delivers EventInitial with the assembled result and opens the event
// stream. The event is pushed under the lock, so a delta arriving
// concurrently is ordered strictly after the initial result.
func (sub *Subscription) admit() {
	sub.mu.Lock()
	if sub.closed || !sub.backfilling {
		sub.mu.Unlock()
		return
	}
	sub.backfilling = false
	sub.pushLocked(Event{Type: EventInitial, Docs: sub.resultLocked(), Index: -1})
	sub.mu.Unlock()
}

// freshLocked reports whether a notification from origin with sequence
// number seq should be applied, and records it. Exact redeliveries (e.g. a
// duplicated event-layer message) are dropped for every query. For sorted
// queries, out-of-order notifications are dropped too: window diffs only
// compose in sequence order, and a renewal repairs any resulting gap. For
// unsorted queries, out-of-order notifications pass through and the per-key
// version guard decides. Callers hold sub.mu.
func (sub *Subscription) freshLocked(origin string, seq uint64) bool {
	if origin == "" {
		return true
	}
	if sub.seen == nil {
		sub.seen = map[string]*originState{}
	}
	st := sub.seen[origin]
	if st == nil {
		st = &originState{recent: map[uint64]struct{}{}}
		sub.seen[origin] = st
	}
	if _, dup := st.recent[seq]; dup {
		return false
	}
	if sub.ordered && seq < st.last {
		return false
	}
	st.recent[seq] = struct{}{}
	if seq > st.last {
		st.last = seq
	}
	if len(st.recent) > 512 {
		for s := range st.recent {
			if s+256 < st.last {
				delete(st.recent, s)
			}
		}
	}
	return true
}

// staleLocked reports whether a versioned notification for key is older
// than (or a redelivery of) the version already applied, and records the
// version. Only unsorted queries use it: their notifications commute per
// key, so the newest version wins regardless of arrival order. Sorted
// window diffs are exempt — their ordering is enforced by sequence numbers
// instead. Callers hold sub.mu.
func (sub *Subscription) staleLocked(key string, version uint64) bool {
	if sub.ordered || version == 0 || key == "" {
		return false
	}
	if sub.vers == nil {
		sub.vers = map[string]uint64{}
	}
	if version <= sub.vers[key] {
		return true
	}
	sub.vers[key] = version
	return false
}

func (sub *Subscription) insertAt(key string, idx int) {
	// Idempotent: a key can never appear twice in the window, so a repeated
	// add (e.g. across a renewal) moves it instead.
	sub.removeKey(key)
	if idx < 0 || idx > len(sub.order) {
		idx = len(sub.order)
	}
	sub.order = append(sub.order, "")
	copy(sub.order[idx+1:], sub.order[idx:])
	sub.order[idx] = key
}

func (sub *Subscription) removeKey(key string) {
	for i, k := range sub.order {
		if k == key {
			sub.order = append(sub.order[:i], sub.order[i+1:]...)
			return
		}
	}
}

// fail emits a terminal error event.
func (sub *Subscription) fail(err error) {
	sub.push(Event{Type: EventError, Err: err, Index: -1})
}

// disconnect reports heartbeat loss without terminating the subscription;
// the server re-subscribes automatically once heartbeats resume.
func (sub *Subscription) disconnect(err error) {
	sub.push(Event{Type: EventDisconnected, Err: err, Index: -1})
}

// push enqueues an event that changes nothing in the maintained result.
func (sub *Subscription) push(ev Event) {
	sub.mu.Lock()
	defer sub.mu.Unlock()
	sub.pushLocked(ev)
}

// pushLocked enqueues an event without blocking the notification loop;
// callers hold sub.mu and have already folded the event into the maintained
// result. While the consumer keeps up this is one non-blocking send into the
// handoff. Once the handoff is full, events wait in the backlog and a
// transient drainer moves them across in order. A consumer more than bound
// events behind has lost its place: the backlog is replaced by one event
// carrying the full current result, the events it stood for are counted in
// Dropped, and the consumer resumes from there — a snapshot, not a log with
// a hole in it. Events already in the handoff are older and stay in front.
func (sub *Subscription) pushLocked(ev Event) {
	if sub.closed {
		return
	}
	if !sub.draining {
		select {
		case sub.events <- ev:
			return
		default:
		}
		sub.draining = true
		sub.server.wg.Add(1)
		go sub.drain()
	}
	if len(sub.backlog) >= sub.bound {
		ev = sub.collapseLocked(ev)
	}
	sub.backlog = append(sub.backlog, ev)
}

// collapseLocked empties the backlog and returns the event to queue in place
// of ev. The snapshot is EventInitial if the consumer has yet to see the
// initial result, EventReconnected otherwise, and stands in for ev as well —
// except for an error or disconnect, which the result does not record: then
// the snapshot is queued and ev follows it.
func (sub *Subscription) collapseLocked(ev Event) Event {
	shed := len(sub.backlog)
	initial := ev.Type == EventInitial
	for _, e := range sub.backlog {
		initial = initial || e.Type == EventInitial
	}
	snap := Event{Type: EventReconnected, Docs: sub.resultLocked(), Index: -1}
	if initial {
		snap.Type = EventInitial
	}
	clear(sub.backlog)
	sub.backlog = sub.backlog[:0]
	if ev.Type == EventError || ev.Type == EventDisconnected {
		sub.backlog = append(sub.backlog, snap)
	} else {
		shed++
		ev = snap
	}
	sub.dropped.Add(uint64(shed))
	sub.server.mEventDrops.Add(int64(shed))
	return ev
}

// drain moves the backlog into the handoff in order, one blocking send at a
// time, and exits the moment the backlog is empty. It owns the sending side
// of events from the push that started it until it clears draining, so a
// Close in between leaves closing the channel to it.
func (sub *Subscription) drain() {
	defer sub.server.wg.Done()
	for {
		sub.mu.Lock()
		if sub.closed || len(sub.backlog) == 0 {
			sub.draining = false
			sub.backlog = nil
			if sub.closed {
				close(sub.events)
			}
			sub.mu.Unlock()
			return
		}
		ev := sub.backlog[0]
		sub.backlog[0] = Event{}
		sub.backlog = sub.backlog[1:]
		sub.mu.Unlock()
		select {
		case sub.events <- ev:
		case <-sub.done:
		}
	}
}
