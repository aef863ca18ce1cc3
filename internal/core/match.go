package core

import (
	"fmt"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/query"
	"invalidb/internal/ratelimit"
	"invalidb/internal/topology"
)

// deltaEvent is the filtering stage's output for sorted queries: a per-record
// result change forwarded to the sorting stage (paper §5.2: the filtering
// stage is the only stage that ingests after-images; everything downstream
// receives change notifications).
type deltaEvent struct {
	Tenant  string
	QueryID string
	Type    MatchType
	Key     string
	Version uint64
	Doc     document.Document // nil for deletes
	// Stage timestamps of the originating write (see Notification); zero
	// for deltas not caused by a traced write.
	WriteNs  int64
	IngestNs int64
	MatchNs  int64
}

// matchQuery is one registered query on one matching node: the node's write
// partition of the query's result plus subscription bookkeeping.
type matchQuery struct {
	tenant  string
	q       *query.Query
	hash    uint64
	ordered bool
	slack   int
	// bucket is the cell's per-(tenant, collection) group the query is
	// evaluated in; slot is its position there, for O(1) swap-delete.
	bucket  *queryBucket
	slot    int
	subs    map[string]time.Time // subscription id -> TTL deadline
	tracked map[string]uint64    // key -> version of this partition's matching records
	seq     uint64
}

// retainedImage is one entry of the write-stream retention buffer (§5.1):
// recent after-images are kept for a bounded time and replayed against newly
// subscribed queries to close the write-query and write-subscription races.
type retainedImage struct {
	we *WriteEvent
	at time.Time
}

// retentionRing is the retention buffer as a circular queue: pushes append
// at the tail, pruning advances the head, and neither copies the surviving
// entries the way the former append-based buffer did on every tick.
type retentionRing struct {
	buf  []retainedImage
	head int // index of the oldest entry
	n    int
}

func (r *retentionRing) push(ri retainedImage) {
	if r.n == len(r.buf) {
		size := 2 * len(r.buf)
		if size == 0 {
			size = 64
		}
		grown := make([]retainedImage, size)
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf, r.head = grown, 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = ri
	r.n++
}

// prune drops entries older than cutoff. Entries are pushed in time order,
// so pruning stops at the first survivor; dropped slots are zeroed to
// release their WriteEvents to the collector.
func (r *retentionRing) prune(cutoff time.Time) {
	for r.n > 0 && r.buf[r.head].at.Before(cutoff) {
		r.buf[r.head] = retainedImage{}
		r.head = (r.head + 1) % len(r.buf)
		r.n--
	}
}

// at returns the i-th retained entry, oldest first (0 <= i < r.n).
//
//invalidb:hotpath
func (r *retentionRing) at(i int) *retainedImage {
	return &r.buf[(r.head+i)%len(r.buf)]
}

// keyState is what a cell remembers about one record it has seen written:
// the newest version (staleness avoidance, §5.1) and when it arrived, so the
// entry can be dropped once no retained image can refer to it. ck is the
// record's tenant\x00collection\x00key composite — the entry's own map key,
// handed back so a write costs one string the first time a record is seen
// and none afterwards.
type keyState struct {
	ck      string
	version uint64
	at      time.Time
}

// keyTable is the cell's per-record state, keyed by composite key. Only
// writes enter it — a bootstrap row nobody writes to again has no entry, and
// needs none: only a write's age can prune one.
type keyTable struct {
	buf []byte
	m   map[string]keyState
}

// get returns the record's entry. For a record not in the table it returns a
// zero state under a freshly built composite key; put enters it.
//
//invalidb:hotpath
func (kt *keyTable) get(tenant, collection, key string) keyState {
	kt.buf = append(kt.buf[:0], tenant...)
	kt.buf = append(kt.buf, 0)
	kt.buf = append(kt.buf, collection...)
	kt.buf = append(kt.buf, 0)
	kt.buf = append(kt.buf, key...)
	if st, ok := kt.m[string(kt.buf)]; ok { // no alloc: compiler-optimized lookup
		return st
	}
	//invalidb:allow hotpathalloc the composite key is built once per record the cell sees, never afterwards
	return keyState{ck: string(kt.buf)}
}

//invalidb:hotpath
func (kt *keyTable) put(st keyState) { kt.m[st.ck] = st }

// matchBolt is a matching node: the grid cell at (query partition, write
// partition). It holds a subset of all queries and sees a fraction of all
// writes; every incoming after-image is matched against all of the node's
// queries (§5.1, Figure 2).
type matchBolt struct {
	c      *Cluster
	out    topology.Collector
	taskID int
	// cell is this task's LOCAL grid coordinates (slot row, column),
	// delivered as placement metadata at Prepare. The global query-partition
	// row it serves is decided by the installed partition map, never cached
	// here — caching it was the stale-capture bug a write-partition resize
	// exposed in the old opts-derived gridCell.
	cell GridCell
	// origin stamps outgoing notifications with this node instance's
	// identity ("<node>:m<task>.<incarnation>", the node prefix empty in an
	// unnamed process) so application servers can deduplicate
	// redeliveries per emitting instance.
	origin string

	queries map[uint64]*matchQuery
	// buckets groups the same queries by tenant\x00collection — the prefix
	// of the interned composite record key — so a write finds the queries it
	// can affect with one lookup and the matching loop compares no tenant or
	// collection strings per query.
	buckets   map[string]*queryBucket
	keys      keyTable // newest version seen per record, and when
	retention retentionRing
	bucket    *ratelimit.Bucket
	qindex    *queryIndex // nil unless Options.EnableQueryIndex
	// backfills holds the watermark window state of in-flight backfills
	// (chunks gated on their high mark); see backfill.go.
	backfills map[string]*cellBackfill

	// now is the node's coarse clock, advanced by tick tuples: the staleness
	// table and retention buffer only need tick-interval resolution, so the
	// hot path spends no time.Now() calls per write.
	now time.Time
	// cands is the reusable candidate scratch map for the query index probe.
	cands map[uint64]*matchQuery
	// evaluated counts filter evaluations since the last flushEvaluated: the
	// loop over a write's candidates bumps this plain field and publishes the
	// shared atomic counter once per write, not once per query.
	evaluated int64
}

func newMatchBolt(c *Cluster) topology.Bolt { return &matchBolt{c: c} }

func (b *matchBolt) Prepare(ctx *topology.BoltContext, out topology.Collector) error {
	b.out = out
	b.taskID = ctx.TaskID
	if gc, ok := ctx.Meta.(GridCell); ok {
		b.cell = gc
	} else {
		// Bolts prepared outside the cluster topology (unit tests) fall back
		// to deriving the cell from the task id and the local layout.
		row, col := b.c.layout.cell(ctx.TaskID)
		b.cell = GridCell{Row: row, Col: col}
	}
	// Node-qualified origin: task ids repeat across the processes of a
	// coordinated grid, so the per-instance dedup identity must not.
	b.origin = fmt.Sprintf("%s:m%d.%d", b.c.opts.NodeID, ctx.TaskID, ctx.Incarnation)
	b.queries = map[uint64]*matchQuery{}
	b.buckets = map[string]*queryBucket{}
	b.keys = keyTable{m: map[string]keyState{}}
	b.backfills = map[string]*cellBackfill{}
	//invalidb:allow coarseclock one-time seed of the coarse clock at Prepare
	b.now = time.Now()
	if cap := b.c.opts.NodeCapacity; cap > 0 {
		b.bucket = ratelimit.New(float64(cap), 0) // ratelimit's default burst
	}
	if b.c.opts.EnableQueryIndex {
		b.qindex = newQueryIndex()
		b.cands = map[uint64]*matchQuery{}
	}
	return nil
}

//invalidb:hotpath
func (b *matchBolt) Execute(t *topology.Tuple) {
	if hook := b.c.opts.MatchHook; hook != nil {
		// The hook may panic (fault injection): the supervisor then drops the
		// in-flight tuple and restarts the cell with an empty query set.
		kind := "tick"
		if t.Component() != "tick" {
			kindV, _ := t.Get("kind")
			kind, _ = kindV.(string)
		}
		hook(b.taskID, kind)
	}
	if t.Component() == "tick" {
		// Tick tuples carry their emission timestamp; reusing it keeps the
		// node's coarse clock consistent without another time.Now() call.
		now, _ := t.Values[0].(time.Time)
		if now.IsZero() {
			//invalidb:allow coarseclock fallback for tick tuples without a timestamp
			now = time.Now()
		}
		//invalidb:allow hotpathalloc tick handling runs once per tick interval, not per write
		b.handleTick(now)
		return
	}
	kindV, _ := t.Get("kind")
	kind, _ := kindV.(string)
	payloadV, _ := t.Get("payload")
	switch kind {
	case kindSubscribe:
		if p, ok := payloadV.(*subscribePayload); ok {
			//invalidb:allow hotpathalloc subscription registration is control-plane; its state must be allocated
			b.handleSubscribe(p)
		}
	case kindCancel:
		if p, ok := payloadV.(*CancelRequest); ok {
			b.handleCancel(p)
		}
	case kindLease:
		if p, ok := payloadV.(*Lease); ok {
			b.handleLease(p)
		}
	case kindWrite:
		if p, ok := payloadV.(*WriteEvent); ok {
			b.handleWrite(p)
		}
	case kindWriteBatch:
		if p, ok := payloadV.(*writeBatch); ok {
			for _, we := range p.events {
				b.handleWrite(we)
			}
		}
	case kindBackfillChunk:
		if p, ok := payloadV.(*backfillChunkPayload); ok {
			b.handleBackfillChunk(p)
		}
	case kindBackfillMark:
		if p, ok := payloadV.(*BackfillMark); ok {
			b.handleBackfillMark(p)
		}
	}
}

func (b *matchBolt) Cleanup() {}

//invalidb:hotpath
func (b *matchBolt) handleWrite(we *WriteEvent) {
	img := we.Image
	st := b.keys.get(we.Tenant, img.Collection, img.Key)
	// Staleness avoidance (§5.1): writes are versioned, so an after-image is
	// ignored whenever a more recent version for the same item has already
	// been received (e.g. an update arriving after the item's delete).
	if img.Version <= st.version {
		return
	}
	st.version, st.at = img.Version, b.now
	b.keys.put(st)
	ck := st.ck
	//invalidb:allow hotpathalloc ring growth doubles capacity, amortized O(1) per retained image
	b.retention.push(retainedImage{we: we, at: b.now})

	// The node's matching budget: evaluating one after-image against every
	// query of its collection costs that many match-operations — unless the
	// multi-query index narrows the probe to candidates.
	b.c.mCandWrites.Inc()
	if b.qindex != nil {
		clear(b.cands)
		cands := b.qindex.candidatesInto(we, ck, b.cands)
		b.c.mCandProbed.Add(int64(len(cands)))
		if b.bucket != nil {
			b.bucket.Take(float64(len(cands) + 1))
		}
		for _, mq := range cands {
			b.processImage(mq, we)
		}
		b.flushEvaluated()
		return
	}
	var queries []*matchQuery
	if qb := b.buckets[bucketOfKey(ck, img.Key)]; qb != nil {
		queries = qb.queries
	}
	b.c.mCandProbed.Add(int64(len(queries)))
	if b.bucket != nil {
		b.bucket.Take(float64(max(len(queries), 1)))
	}
	for _, mq := range queries {
		b.processImage(mq, we)
	}
	b.flushEvaluated()
}

//invalidb:hotpath
func (b *matchBolt) flushEvaluated() {
	b.c.mCandEvaluated.Add(b.evaluated)
	b.evaluated = 0
}

// queryBucket is the cell's queries of one (tenant, collection), in
// registration order.
type queryBucket struct {
	key     string // tenant\x00collection
	queries []*matchQuery
}

// addQuery registers a query with the cell: by hash, in its bucket, and in
// the multi-query index when enabled.
func (b *matchBolt) addQuery(mq *matchQuery) {
	bkey := bucketKey(mq.tenant, mq.q.Collection)
	qb := b.buckets[bkey]
	if qb == nil {
		qb = &queryBucket{key: bkey}
		b.buckets[bkey] = qb
	}
	mq.bucket, mq.slot = qb, len(qb.queries)
	qb.queries = append(qb.queries, mq)
	b.queries[mq.hash] = mq
	if b.qindex != nil {
		b.qindex.add(mq)
	}
}

// removeQuery is addQuery's inverse; the last query of the bucket takes the
// removed one's slot.
func (b *matchBolt) removeQuery(mq *matchQuery) {
	qb := mq.bucket
	last := len(qb.queries) - 1
	moved := qb.queries[last]
	qb.queries[mq.slot], moved.slot = moved, mq.slot
	qb.queries[last] = nil
	qb.queries = qb.queries[:last]
	if last == 0 {
		delete(b.buckets, qb.key)
	}
	delete(b.queries, mq.hash)
	if b.qindex != nil {
		b.qindex.remove(mq)
	}
}

// replay evaluates retained after-images newer than version `after` against
// one query, closing the race between the query's installed state and the
// writes that passed the cell meanwhile (§5.1). Only each key's newest
// retained image is applied — the per-query tracked map forgets versions
// when items leave the result, so replaying an older image (e.g. the insert
// preceding a delete) would resurrect it. It returns the number of images
// applied.
//
//invalidb:hotpath
func (b *matchBolt) replay(mq *matchQuery, after uint64) int {
	applied := 0
	for i := 0; i < b.retention.n; i++ {
		we := b.retention.at(i).we
		img := we.Image
		if img.Version <= after || we.Tenant != mq.tenant || img.Collection != mq.q.Collection {
			continue
		}
		if img.Version < b.keys.get(we.Tenant, img.Collection, img.Key).version {
			continue // superseded within the retention window
		}
		applied++
		b.processImage(mq, we)
	}
	b.flushEvaluated()
	return applied
}

// processImage derives the result change (if any) a single after-image
// causes for a single query, by comparing current against former matching
// status (§5.1). The caller guarantees the write belongs to the query's
// (tenant, collection) bucket.
//
//invalidb:hotpath
func (b *matchBolt) processImage(mq *matchQuery, we *WriteEvent) {
	img := we.Image
	prev, wasTracked := mq.tracked[img.Key]
	if wasTracked && img.Version <= prev {
		return // per-query staleness during replay
	}
	b.evaluated++
	isMatch := img.Op != document.OpDelete && b.c.opts.Engine.Match(mq.q, img.Doc)
	if isMatch {
		b.c.mCandMatched.Inc()
	}
	switch {
	case isMatch && !wasTracked:
		b.track(mq, img.Key, img.Version)
		//invalidb:allow hotpathalloc deltas for ordered queries must escape to the sorting stage; matches are rare relative to writes
		b.emit(mq, we, MatchAdd, img.Key, img.Version, img.Doc)
	case isMatch && wasTracked:
		mq.tracked[img.Key] = img.Version
		b.emit(mq, we, MatchChange, img.Key, img.Version, img.Doc)
	case !isMatch && wasTracked:
		delete(mq.tracked, img.Key)
		if b.qindex != nil {
			b.qindex.untrack(img.Key, mq)
		}
		b.emit(mq, we, MatchRemove, img.Key, img.Version, img.Doc)
	default:
		// Irrelevant write: filtered out, nothing flows downstream (§5.2).
	}
}

// track records that the record is in the query's result partition at the
// given version, in the query's own table and in the index's tracker sets.
//
//invalidb:hotpath
func (b *matchBolt) track(mq *matchQuery, key string, version uint64) {
	mq.tracked[key] = version
	if b.qindex != nil {
		//invalidb:allow hotpathalloc first-track lazily allocates the per-record tracker set, amortized across a query's matches
		b.qindex.track(key, mq)
	}
}

// emit sends the filtering-stage result change: directly to the event layer
// for self-maintainable (unsorted) queries, downstream to the sorting stage
// for queries with sort, limit or offset clauses. With extension stages
// configured, deltas of every query flow downstream as well (SEDA: later
// stages consume filtering-stage output, never raw after-images).
func (b *matchBolt) emit(mq *matchQuery, we *WriteEvent, mt MatchType, key string, ver uint64, doc document.Document) {
	b.c.mMatched.Inc()
	// Matches are rare relative to writes evaluated, so a real time.Now()
	// here (rather than the coarse tick clock) costs nothing measurable
	// and gives the breakdown its matching-stage boundary.
	//invalidb:allow coarseclock per-match stage-boundary stamp; matches are rare relative to writes
	matchNs := time.Now().UnixNano()
	if mq.ordered || len(b.c.opts.ExtraStages) > 0 {
		delta := &deltaEvent{
			Tenant:   mq.tenant,
			QueryID:  QueryIDString(mq.hash),
			Type:     mt,
			Key:      key,
			Version:  ver,
			Doc:      doc,
			WriteNs:  we.SentNs,
			IngestNs: we.IngestNs,
			MatchNs:  matchNs,
		}
		b.out.Emit(topology.Values{kindDelta, delta.QueryID, delta})
		if mq.ordered {
			return
		}
	}
	mq.seq++
	n := &Notification{
		Tenant:   mq.tenant,
		QueryID:  QueryIDString(mq.hash),
		Type:     mt,
		Key:      key,
		Version:  ver,
		Index:    -1,
		Seq:      mq.seq,
		Origin:   b.origin,
		WriteNs:  we.SentNs,
		IngestNs: we.IngestNs,
		MatchNs:  matchNs,
	}
	if mt != MatchRemove {
		n.Doc = mq.q.Project(doc)
	}
	b.c.publishNotification(n)
}

func (b *matchBolt) handleSubscribe(p *subscribePayload) {
	//invalidb:allow coarseclock control-plane TTL deadline at subscribe time
	now := time.Now()
	mq := b.queries[p.hash]
	if mq == nil {
		mq = &matchQuery{
			tenant:  p.req.Tenant,
			q:       p.q,
			hash:    p.hash,
			ordered: p.q.Ordered(),
			slack:   p.slack,
			subs:    map[string]time.Time{},
			tracked: map[string]uint64{},
		}
		b.addQuery(mq)
	}
	mq.subs[p.req.SubscriptionID] = now.Add(p.ttl)
	// Install the bootstrap result partition. Entries never regress state:
	// a tracked version newer than the bootstrap's wins (the retention
	// buffer already delivered a fresher image).
	for _, e := range p.entries {
		if cur, ok := mq.tracked[e.Key]; !ok || e.Version > cur {
			b.track(mq, e.Key, e.Version)
		}
	}
	// A chunked-backfill install carries no result and needs no replay: the
	// live stream covers every write from this install onward, chunk reads
	// cover everything before their low watermark, and each chunk's
	// reconcile replays its own window. Replaying here would only burn a
	// full retention walk per install.
	if p.backfill {
		return
	}
	// Replay the whole retention buffer against the query to close the
	// write-query and write-subscription races (§5.1): any retained image
	// newer than the bootstrap state produces a regular result change.
	b.replay(mq, 0)
}

func (b *matchBolt) handleCancel(p *CancelRequest) {
	mq := b.queries[p.QueryHash]
	if mq == nil {
		return
	}
	delete(mq.subs, p.SubscriptionID)
	if len(mq.subs) == 0 {
		b.removeQuery(mq)
	}
}

// handleLease pushes out the TTL deadline of every leased subscription this
// cell holds; an id it does not hold means nothing here (§5.1, footnote 3).
func (b *matchBolt) handleLease(p *Lease) {
	//invalidb:allow coarseclock control-plane TTL deadline at lease time
	deadline := time.Now().Add(ttlOf(p.TTLMillis))
	for _, e := range p.Subs {
		if mq := b.queries[e.QueryHash]; mq != nil {
			if _, ok := mq.subs[e.SubscriptionID]; ok {
				mq.subs[e.SubscriptionID] = deadline
			}
		}
	}
}

// handleTick advances the coarse clock, expires subscriptions whose TTL
// lapsed, and prunes the retention buffer and staleness table beyond the
// retention window.
//
// Both expiry loops delete from the map they are ranging over. The Go spec
// explicitly permits this: a deleted entry is simply not produced later in
// the iteration, which is exactly the semantics wanted here — every live
// entry is visited once, deletions take effect immediately, no snapshot is
// needed. This is intentional, not incidental (see
// TestHandleTickExpiresManyInOneTick).
func (b *matchBolt) handleTick(now time.Time) {
	b.now = now
	subs := 0
	for hash, mq := range b.queries {
		for sid, deadline := range mq.subs {
			if now.After(deadline) {
				delete(mq.subs, sid)
			}
		}
		subs += len(mq.subs)
		if len(mq.subs) == 0 {
			b.removeQuery(mq)
			// Exactly one cell per local row (column 0) informs the sorting
			// stage, so the expiry is delivered once.
			if mq.ordered && b.cell.Col == 0 {
				b.out.Emit(topology.Values{kindExpire, QueryIDString(hash), hash})
			}
		}
	}
	if b.cell.Col == 0 {
		// The cluster.queries / cluster.subscriptions gauges sum these slots.
		held := &b.c.held[b.taskID]
		held.queries.Store(int64(len(b.queries)))
		held.subs.Store(int64(subs))
	}
	b.expireBackfills(now)
	cutoff := now.Add(-b.c.opts.RetentionTime)
	b.retention.prune(cutoff)
	for ck, st := range b.keys.m {
		if st.at.Before(cutoff) {
			delete(b.keys.m, ck)
		}
	}
}
