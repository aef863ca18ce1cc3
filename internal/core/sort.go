package core

import (
	"fmt"
	"sort"

	"invalidb/internal/document"
	"invalidb/internal/query"
	"invalidb/internal/topology"
)

// sortEntry is one item of a sorting node's auxiliary data: the offset
// items, the visible result, and up to slack items beyond the limit
// (paper Figure 3).
type sortEntry struct {
	key string
	ver uint64
	doc document.Document
}

// sortQuery is the sorting stage's state for one sorted query.
type sortQuery struct {
	tenant string
	q      *query.Query // original query, with offset and limit
	hash   uint64
	slack  int
	subs   map[string]struct{}

	// entries is the maintained superset, ordered by the engine comparator:
	// offset region, visible window, and slack beyond the limit.
	entries []sortEntry
	// sawOverflow records that the true matching set may extend beyond the
	// tracked entries (the bound was hit at bootstrap or an insert was
	// dropped), which is when exhausting the slack becomes unmaintainable.
	sawOverflow bool
	// active is false between a maintenance error and the renewal
	// subscription (§5.2: the node deactivates the query and the error
	// notification doubles as a renewal request).
	active bool
	// published is the visible window as last communicated to subscribers —
	// the diff base for every notification batch. It only advances when
	// notifications are emitted, so subscribers can always reconstruct the
	// current window from their last state plus the new batch, even across
	// maintenance errors and renewals.
	published []sortEntry
	// pending buffers deltas that arrive while the query awaits renewal:
	// the matching nodes' retention replay may deliver result changes
	// before the renewal bootstrap does (the two travel different paths),
	// and dropping them would leave the renewed window stale. They are
	// applied version-checked after the bootstrap.
	pending []*deltaEvent
	seq     uint64
}

// maxPendingDeltas bounds the renewal buffer; a renewal takes one round
// trip, so anything beyond this indicates a stuck application server.
const maxPendingDeltas = 4096

// bound is the maximum number of entries the node retains: offset + limit +
// slack. Zero means unbounded (queries without a limit clause track their
// full result and are always maintainable).
func (sq *sortQuery) bound() int {
	if sq.q.Limit == 0 {
		return 0
	}
	return sq.q.Offset + sq.q.Limit + sq.slack
}

// window returns a copy of the visible result: entries[offset : offset+limit].
func (sq *sortQuery) window() []sortEntry {
	start := sq.q.Offset
	if start > len(sq.entries) {
		start = len(sq.entries)
	}
	end := len(sq.entries)
	if sq.q.Limit > 0 && start+sq.q.Limit < end {
		end = start + sq.q.Limit
	}
	return append([]sortEntry(nil), sq.entries[start:end]...)
}

// sortBolt is a sorting-stage node. It receives filtering-stage deltas
// partitioned by query and maintains each query's window with auxiliary
// data, detecting positional changes (changeIndex), window entries/exits
// under limit and offset clauses, and maintenance errors when the slack is
// exhausted (§5.2).
type sortBolt struct {
	c       *Cluster
	out     topology.Collector
	queries map[uint64]*sortQuery
	// origin stamps outgoing notifications with this node instance's
	// identity ("s<task>.<incarnation>") for server-side deduplication.
	origin string
	// cur* hold the stage timestamps of the delta being applied, copied
	// onto every notification its window diff produces. Bootstrap-driven
	// diffs run with zero stamps (they are not caused by a traced write).
	curWriteNs  int64
	curIngestNs int64
	curMatchNs  int64
}

func newSortBolt(c *Cluster) topology.Bolt { return &sortBolt{c: c} }

func (b *sortBolt) Prepare(ctx *topology.BoltContext, out topology.Collector) error {
	b.out = out
	b.queries = map[uint64]*sortQuery{}
	b.origin = fmt.Sprintf("s%d.%d", ctx.TaskID, ctx.Incarnation)
	return nil
}

func (b *sortBolt) Execute(t *topology.Tuple) {
	if t.Component() == "tick" {
		return // the sorting stage has no timers; expiry arrives as a tuple
	}
	kindV, _ := t.Get("kind")
	kind, _ := kindV.(string)
	payloadV, _ := t.Get("payload")
	switch kind {
	case kindSubscribe:
		if p, ok := payloadV.(*subscribePayload); ok {
			b.handleBootstrap(p)
		}
	case kindCancel:
		if p, ok := payloadV.(*CancelRequest); ok {
			b.handleCancel(p)
		}
	case kindExpire:
		if hash, ok := payloadV.(uint64); ok {
			b.handleExpire(hash)
		}
	case kindDelta:
		if d, ok := payloadV.(*deltaEvent); ok {
			b.handleDelta(d)
		}
	}
}

func (b *sortBolt) Cleanup() {}

// handleCancel drops one subscription; the query state lives as long as any
// subscription remains.
func (b *sortBolt) handleCancel(p *CancelRequest) {
	if sq := b.queries[p.QueryHash]; sq != nil {
		delete(sq.subs, p.SubscriptionID)
		if len(sq.subs) == 0 {
			delete(b.queries, p.QueryHash)
		}
	}
}

// handleExpire drops a query whose subscriptions all timed out (sent once
// per row by the write-partition-0 matching node).
func (b *sortBolt) handleExpire(hash uint64) {
	delete(b.queries, hash)
}

// handleBootstrap installs or renews a sorted query from the application
// server's bootstrap result (the rewritten query's result: offset items,
// window, and slack).
func (b *sortBolt) handleBootstrap(p *subscribePayload) {
	sq := b.queries[p.hash]
	entries := make([]sortEntry, 0, len(p.entries))
	for _, e := range p.entries {
		entries = append(entries, sortEntry{key: e.Key, ver: e.Version, doc: e.Doc})
	}
	if sq == nil {
		sq = &sortQuery{
			tenant: p.req.Tenant,
			q:      p.q,
			hash:   p.hash,
			slack:  p.slack,
			subs:   map[string]struct{}{},
			active: true,
		}
		sq.entries = entries
		b.sortEntries(sq)
		sq.sawOverflow = sq.bound() > 0 && len(sq.entries) >= sq.bound()
		// The application server delivered this bootstrap's window as the
		// initial result, so it is what subscribers know.
		sq.published = sq.window()
		sq.subs[p.req.SubscriptionID] = struct{}{}
		b.queries[p.hash] = sq
		return
	}
	_, resubscribed := sq.subs[p.req.SubscriptionID]
	sq.subs[p.req.SubscriptionID] = struct{}{}
	if sq.active && !resubscribed {
		// Additional subscription to an already-maintained query: the
		// cluster state is authoritative; the new subscriber got its initial
		// result from the application server.
		return
	}
	// Renewal — after a maintenance error, or because the application server
	// re-read the database for a subscription it already holds (a matching
	// cell restarted, so deltas may never have reached this stage): rebuild
	// from the fresh result, fold in any changes that overtook the bootstrap,
	// and emit the incremental transition from the last *published* window
	// (§5.2) — the diff base must be the subscribers' state, not the node's.
	sq.entries = entries
	b.sortEntries(sq)
	sq.slack = p.slack // the server may raise the slack on reexecution
	sq.sawOverflow = sq.bound() > 0 && len(sq.entries) >= sq.bound()
	sq.active = true
	pending := sq.pending
	sq.pending = nil
	for _, d := range pending {
		if !sq.active {
			// A buffered removal re-triggered a maintenance error; the
			// remaining deltas stay buffered for the next renewal.
			sq.pending = append(sq.pending, d)
			continue
		}
		b.applyMutation(sq, d)
	}
	if sq.active {
		// Renewal diffs merge many buffered deltas; no single write's
		// stamps describe them.
		b.curWriteNs, b.curIngestNs, b.curMatchNs = 0, 0, 0
		b.emitDiff(sq)
	}
}

// applyMutation folds a delta into the entry state without notifying; the
// caller emits a published-vs-current diff afterwards. It may deactivate the
// query (maintenance error).
func (b *sortBolt) applyMutation(sq *sortQuery, d *deltaEvent) {
	for i := range sq.entries {
		if sq.entries[i].key == d.Key && d.Version <= sq.entries[i].ver {
			return // already reflected (bootstrap/replay overlap)
		}
	}
	removed := b.removeEntry(sq, d.Key)
	inserted := false
	if d.Type == MatchAdd || d.Type == MatchChange {
		inserted = b.insertEntry(sq, sortEntry{key: d.Key, ver: d.Version, doc: d.Doc})
	}
	// Maintainability (§5.2): when an item leaves the tracked region while
	// the true result may extend beyond it, and the remaining entries no
	// longer cover the visible window, the node cannot determine the
	// replacement item — the query becomes unmaintainable.
	if removed && !inserted && sq.bound() > 0 && sq.sawOverflow &&
		len(sq.entries) < sq.q.Offset+sq.q.Limit {
		b.maintenanceError(sq)
	}
}

func (b *sortBolt) sortEntries(sq *sortQuery) {
	sort.SliceStable(sq.entries, func(i, j int) bool {
		return b.c.opts.Engine.Compare(sq.q, sq.entries[i].doc, sq.entries[j].doc) < 0
	})
}

// handleDelta applies one filtering-stage result change to the query's
// auxiliary data and emits the visible-window consequences.
func (b *sortBolt) handleDelta(d *deltaEvent) {
	hash, ok := ParseQueryID(d.QueryID)
	if !ok {
		return
	}
	sq := b.queries[hash]
	if sq == nil {
		return // expired or cancelled
	}
	if !sq.active {
		// Awaiting renewal: buffer so changes that overtake the renewal
		// bootstrap are not lost.
		if len(sq.pending) < maxPendingDeltas {
			sq.pending = append(sq.pending, d)
		}
		return
	}
	b.curWriteNs, b.curIngestNs, b.curMatchNs = d.WriteNs, d.IngestNs, d.MatchNs
	b.applyMutation(sq, d)
	if sq.active {
		b.emitDiff(sq)
	}
	b.curWriteNs, b.curIngestNs, b.curMatchNs = 0, 0, 0
}

// removeEntry deletes the keyed entry, reporting whether it was present.
func (b *sortBolt) removeEntry(sq *sortQuery, key string) bool {
	for i := range sq.entries {
		if sq.entries[i].key == key {
			sq.entries = append(sq.entries[:i], sq.entries[i+1:]...)
			return true
		}
	}
	return false
}

// insertEntry places the entry at its sorted position, respecting the bound.
// It reports whether the entry is now tracked.
func (b *sortBolt) insertEntry(sq *sortQuery, e sortEntry) bool {
	pos := sort.Search(len(sq.entries), func(i int) bool {
		return b.c.opts.Engine.Compare(sq.q, e.doc, sq.entries[i].doc) < 0
	})
	bound := sq.bound()
	if bound > 0 && pos >= bound {
		sq.sawOverflow = true
		return false
	}
	if sq.sawOverflow && pos == len(sq.entries) {
		// Past the last tracked entry lies the horizon: matching documents
		// this node does not track may sort before e, so appending it — room
		// left by departed members or not — could later show it in the window
		// ahead of them. The region only regrows through a renewal.
		return false
	}
	sq.entries = append(sq.entries, sortEntry{})
	copy(sq.entries[pos+1:], sq.entries[pos:])
	sq.entries[pos] = e
	if bound > 0 && len(sq.entries) > bound {
		sq.entries = sq.entries[:bound]
		sq.sawOverflow = true
		if pos >= bound {
			return false
		}
	}
	return true
}

func (b *sortBolt) maintenanceError(sq *sortQuery) {
	sq.active = false
	sq.seq++
	b.c.publishNotification(&Notification{
		Tenant:  sq.tenant,
		QueryID: QueryIDString(sq.hash),
		Type:    MatchError,
		Index:   -1,
		Seq:     sq.seq,
		Origin:  b.origin,
		Error:   "query maintenance error: slack exhausted, renewal required",
	})
}

// emitDiff publishes the transition from the last published window to the
// current one and advances the published snapshot.
func (b *sortBolt) emitDiff(sq *sortQuery) {
	after := sq.window()
	b.emitWindowDiff(sq, sq.published, after)
	sq.published = after
}

// emitWindowDiff translates a window transition into the minimal
// notification sequence. Clients reconstruct the window by applying, in seq
// order: removes (by key), then adds and changeIndexes at their final
// indexes (ascending), then in-place changes.
func (b *sortBolt) emitWindowDiff(sq *sortQuery, before, after []sortEntry) {
	beforeIdx := make(map[string]int, len(before))
	for i, e := range before {
		beforeIdx[e.key] = i
	}
	afterIdx := make(map[string]int, len(after))
	for i, e := range after {
		afterIdx[e.key] = i
	}
	for _, e := range before {
		if _, still := afterIdx[e.key]; !still {
			b.notify(sq, MatchRemove, e.key, e.ver, nil, -1)
		}
	}
	for i, e := range after {
		j, was := beforeIdx[e.key]
		switch {
		case !was:
			b.notify(sq, MatchAdd, e.key, e.ver, e.doc, i)
		case e.ver != before[j].ver && i != j:
			b.notify(sq, MatchChangeIndex, e.key, e.ver, e.doc, i)
		case e.ver != before[j].ver:
			b.notify(sq, MatchChange, e.key, e.ver, e.doc, i)
		default:
			// Position shifts of untouched items are implied by the
			// surrounding adds and removes.
		}
	}
}

func (b *sortBolt) notify(sq *sortQuery, mt MatchType, key string, ver uint64, doc document.Document, idx int) {
	sq.seq++
	n := &Notification{
		Tenant:   sq.tenant,
		QueryID:  QueryIDString(sq.hash),
		Type:     mt,
		Key:      key,
		Version:  ver,
		Index:    idx,
		Seq:      sq.seq,
		Origin:   b.origin,
		WriteNs:  b.curWriteNs,
		IngestNs: b.curIngestNs,
		MatchNs:  b.curMatchNs,
	}
	if doc != nil {
		n.Doc = sq.q.Project(doc)
	}
	b.c.publishNotification(n)
}

// ParseQueryID inverts QueryIDString.
func ParseQueryID(id string) (uint64, bool) {
	if len(id) != 17 || id[0] != 'q' {
		return 0, false
	}
	var h uint64
	for _, r := range id[1:] {
		var d uint64
		switch {
		case r >= '0' && r <= '9':
			d = uint64(r - '0')
		case r >= 'a' && r <= 'f':
			d = uint64(r-'a') + 10
		default:
			return 0, false
		}
		h = h<<4 | d
	}
	return h, true
}
