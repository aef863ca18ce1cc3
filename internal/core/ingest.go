package core

import (
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/topology"
)

// busSpout bridges one event-layer topic into the topology. Payloads stay
// opaque here — interpretation happens in the ingestion bolts, mirroring the
// event layer's design (§5.3: "routing and partitioning only rely on primary
// keys and server-generated query identifiers").
type busSpout struct {
	bus   eventlayer.Bus
	topic string
	sub   eventlayer.Subscription
	src   <-chan eventlayer.Message // sub.C(); nil once the subscription closed
	ctx   *topology.SpoutContext
}

func newBusSpout(bus eventlayer.Bus, topic string) topology.Spout {
	return &busSpout{bus: bus, topic: topic}
}

func (s *busSpout) Open(ctx *topology.SpoutContext) error {
	sub, err := s.bus.Subscribe(s.topic)
	if err != nil {
		return err
	}
	s.sub = sub
	s.src = sub.C()
	s.ctx = ctx
	return nil
}

func (s *busSpout) Next() {
	if msg, ok := s.wait(); ok {
		s.ctx.Emit(topology.Values{msg.Payload})
	}
}

// wait parks on the subscription until a message arrives or the topology
// stops. A published message is therefore ingested the moment the bus delivers
// it — the spout is never deaf — and an idle cluster performs no wake-ups at
// all (DESIGN.md §7).
//
//invalidb:hotpath
func (s *busSpout) wait() (eventlayer.Message, bool) {
	select {
	case msg, ok := <-s.src:
		if !ok {
			// A closed subscription stays readable forever; a nil channel
			// never is, so from here on the spout parks until the topology stops.
			s.src = nil
		}
		return msg, ok
	case <-s.ctx.Done:
	}
	return eventlayer.Message{}, false
}

func (s *busSpout) Close() {
	if s.sub != nil {
		_ = s.sub.Close()
	}
}

// tickSpout emits a timestamp tuple at a fixed interval; matching and
// sorting nodes use ticks for TTL expiry and retention pruning (Storm's tick
// tuples).
type tickSpout struct {
	interval time.Duration
	ctx      *topology.SpoutContext
	ticker   *time.Ticker
}

func newTickSpout(interval time.Duration) topology.Spout {
	return &tickSpout{interval: interval}
}

func (s *tickSpout) Open(ctx *topology.SpoutContext) error {
	s.ctx = ctx
	s.ticker = time.NewTicker(s.interval)
	return nil
}

func (s *tickSpout) Next() {
	select {
	case now := <-s.ticker.C:
		s.ctx.Emit(topology.Values{now})
	case <-s.ctx.Done:
	}
}

func (s *tickSpout) Close() {
	if s.ticker != nil {
		s.ticker.Stop()
	}
}

// Tuple kinds flowing between cluster stages.
const (
	kindSubscribe  = "subscribe"
	kindCancel     = "cancel"
	kindLease      = "lease"
	kindWrite      = "write"
	kindWriteBatch = "writeBatch" // several after-images in one tuple
	kindDelta      = "delta"      // filtering-stage output for sorted queries
	kindExpire     = "expire"     // all subscriptions of a query timed out

	// Backfill protocol (DESIGN.md §12): a chunk of the initial result fanned
	// to the query's row, and a watermark mark broadcast to every cell behind
	// the writes it brackets.
	kindBackfillChunk = "backfillChunk"
	kindBackfillMark  = "backfillMark"
)

// writeBatch carries several after-images of one write partition in a single
// tuple: the write-ingestion stage amortizes routing and channel sends over
// the batch instead of paying one tuple per write per query partition.
type writeBatch struct {
	events []*WriteEvent
}

// subscribePayload is the parsed subscription handed to matching and sorting
// nodes. Matching nodes receive the result entries of their own write
// partition only; the sorting node receives the full bootstrap result.
type subscribePayload struct {
	req   *SubscribeRequest
	q     *query.Query // compiled original query
	hash  uint64
	slack int
	ttl   time.Duration
	// entries is the (sliced or full) bootstrap result.
	entries []ResultEntry
	// backfill marks a chunked-backfill install (empty entries; the result
	// arrives chunk by chunk). Cells skip the subscribe-time retention
	// replay for these: the watermark windows of the chunks close the
	// write-subscription race that replay exists to close.
	backfill bool
}

// queryIngestBolt is a stateless query ingestion node (§5.1): it parses
// subscription control messages, computes the query partition from the
// canonical query hash, broadcasts the request to every matching node of the
// partition — delivering to each only its write partition of the initial
// result — and forwards bootstraps of sorted queries to the sorting stage.
type queryIngestBolt struct {
	c   *Cluster
	out topology.Collector
}

func newQueryIngestBolt(c *Cluster) topology.Bolt { return &queryIngestBolt{c: c} }

func (b *queryIngestBolt) Prepare(ctx *topology.BoltContext, out topology.Collector) error {
	b.out = out
	return nil
}

func (b *queryIngestBolt) Execute(t *topology.Tuple) {
	raw, _ := t.Get("payload")
	data, ok := raw.([]byte)
	if !ok {
		return
	}
	env, err := DecodeWire(data)
	if err != nil {
		return
	}
	switch env.Kind {
	case KindSubscribe:
		b.handleSubscribe(env.Subscribe)
	case KindCancel:
		b.c.registerTenant(env.Cancel.Tenant)
		// Cancels resolve at their stamped epoch: during a migration the
		// application server cancels the OLD owner specifically, while the
		// new owner's fresh install stays untouched.
		r := b.c.maps.at(env.Cancel.Epoch)
		if r == nil {
			return // a named process awaiting its first partition map
		}
		if slot := r.ownedSlot(r.m.Row(env.Cancel.QueryHash)); slot >= 0 {
			vals := topology.Values{kindCancel, QueryIDString(env.Cancel.QueryHash), env.Cancel}
			for w := 0; w < r.m.WritePartitions; w++ {
				b.out.EmitDirect(b.c.layout.task(slot, w), vals)
			}
			b.out.EmitStream(streamBootstrap, vals)
		}
	case KindLease:
		// The lease teaches a replacement cluster its tenants, so it starts
		// heartbeating: the signal application servers wait for before they
		// re-subscribe. Entries group by owned row under BOTH epochs:
		// mid-migration a subscription is installed on the old and the new
		// owner, and each must stay alive.
		l := env.Lease
		b.c.registerTenant(l.Tenant)
		cur, prev := b.c.maps.both()
		for _, r := range [2]*routing{cur, prev} {
			if r == nil {
				continue
			}
			bySlot := map[int][]LeaseEntry{}
			for _, e := range l.Subs {
				if slot := r.ownedSlot(r.m.Row(e.QueryHash)); slot >= 0 {
					bySlot[slot] = append(bySlot[slot], e)
				}
			}
			for slot, subs := range bySlot {
				p := &Lease{Tenant: l.Tenant, TTLMillis: l.TTLMillis, Subs: subs}
				for w := 0; w < r.m.WritePartitions; w++ {
					b.out.EmitDirect(b.c.layout.task(slot, w), topology.Values{kindLease, "", p})
				}
			}
		}
	case KindBackfillStart:
		b.handleBackfillStart(env.BackfillStart)
	case KindBackfillChunk:
		b.handleBackfillChunk(env.BackfillChunk)
	}
}

func (b *queryIngestBolt) handleSubscribe(req *SubscribeRequest) {
	q, err := b.c.opts.Engine.Compile(req.Query)
	if err != nil {
		// An uncompilable query cannot be routed; report the error on the
		// tenant's topic so the application server can surface it. Every
		// process of a multi-process grid sees the request, so only the
		// owner of global row 0 speaks — one error, not one per process.
		if b.c.reportsQueryErrors() {
			b.c.publishNotification(&Notification{
				Tenant:  req.Tenant,
				QueryID: "",
				Type:    MatchError,
				Index:   -1,
				Error:   "invalid query: " + err.Error(),
			})
		}
		return
	}
	b.c.registerTenant(req.Tenant)
	hash := TenantQueryHash(req.Tenant, q)
	r := b.c.maps.at(req.Epoch)
	if r == nil {
		return // a named process awaiting its first partition map
	}
	row := r.m.Row(hash)
	slot := r.ownedSlot(row)
	if slot < 0 {
		return // another process owns this row
	}
	b.c.mInstalls.Inc()
	ttl := ttlOf(req.TTLMillis)
	wp := r.m.WritePartitions

	// Slice the bootstrap result by write partition: every matching node of
	// the row receives only its partition of the result (§5.1).
	slices := make([][]ResultEntry, wp)
	for _, e := range req.Result {
		w := int(document.HashKey(e.Key) % uint64(wp))
		slices[w] = append(slices[w], e)
	}
	for w := 0; w < wp; w++ {
		payload := &subscribePayload{
			req: req, q: q, hash: hash, slack: req.Slack, ttl: ttl,
			entries: slices[w],
		}
		b.out.EmitDirect(b.c.layout.task(slot, w), topology.Values{kindSubscribe, QueryIDString(hash), payload})
	}
	if q.Ordered() || len(b.c.opts.ExtraStages) > 0 {
		payload := &subscribePayload{
			req: req, q: q, hash: hash, slack: req.Slack, ttl: ttl,
			entries: req.Result,
		}
		b.out.EmitStream(streamBootstrap, topology.Values{kindSubscribe, QueryIDString(hash), payload})
	}
}

// handleBackfillStart installs a backfilling subscription's query — with an
// empty bootstrap partition — on every cell of its row, so live deltas flow
// to the application server from the first chunk on. The initial result
// follows incrementally as BackfillChunks (DESIGN.md §12); ordered queries
// keep the legacy bootstrap path, because their sorting-stage state needs the
// full result at install time.
func (b *queryIngestBolt) handleBackfillStart(bs *BackfillStart) {
	q, err := b.c.opts.Engine.Compile(bs.Query)
	if err != nil {
		if b.c.reportsQueryErrors() {
			b.c.publishNotification(&Notification{
				Tenant:  bs.Tenant,
				QueryID: "",
				Type:    MatchError,
				Index:   -1,
				Error:   "invalid query: " + err.Error(),
			})
		}
		return
	}
	if q.Ordered() {
		if b.c.reportsQueryErrors() {
			b.c.publishNotification(&Notification{
				Tenant:  bs.Tenant,
				QueryID: "",
				Type:    MatchError,
				Index:   -1,
				Error:   "backfill: ordered queries use the bootstrap path",
			})
		}
		return
	}
	b.c.registerTenant(bs.Tenant)
	hash := TenantQueryHash(bs.Tenant, q)
	r := b.c.maps.at(bs.Epoch)
	if r == nil {
		return
	}
	row := r.m.Row(hash)
	slot := r.ownedSlot(row)
	if slot < 0 {
		return
	}
	b.c.mInstalls.Inc()
	ttl := ttlOf(bs.TTLMillis)
	req := &SubscribeRequest{
		Tenant:         bs.Tenant,
		SubscriptionID: bs.SubscriptionID,
		Query:          bs.Query,
		Slack:          bs.Slack,
		TTLMillis:      bs.TTLMillis,
	}
	for w := 0; w < r.m.WritePartitions; w++ {
		payload := &subscribePayload{req: req, q: q, hash: hash, slack: bs.Slack, ttl: ttl, backfill: true}
		b.out.EmitDirect(b.c.layout.task(slot, w), topology.Values{kindSubscribe, QueryIDString(hash), payload})
	}
	if len(b.c.opts.ExtraStages) > 0 {
		payload := &subscribePayload{req: req, q: q, hash: hash, slack: bs.Slack, ttl: ttl, backfill: true}
		b.out.EmitStream(streamBootstrap, topology.Values{kindSubscribe, QueryIDString(hash), payload})
	}
}

// handleBackfillChunk slices a chunk by write partition and fans it to every
// cell of the query's row — including cells whose slice is empty, because
// each cell must certify that its partition's in-window writes are folded in.
func (b *queryIngestBolt) handleBackfillChunk(bc *BackfillChunk) {
	b.c.registerTenant(bc.Tenant)
	r := b.c.maps.at(bc.Epoch)
	if r == nil {
		return
	}
	row := r.m.Row(bc.QueryHash)
	slot := r.ownedSlot(row)
	if slot < 0 {
		return
	}
	wp := r.m.WritePartitions
	slices := make([][]ResultEntry, wp)
	for _, e := range bc.Entries {
		w := int(document.HashKey(e.Key) % uint64(wp))
		slices[w] = append(slices[w], e)
	}
	for w := 0; w < wp; w++ {
		payload := &backfillChunkPayload{
			tenant: bc.Tenant, sid: bc.SubscriptionID, bfid: bc.BackfillID,
			hash: bc.QueryHash, chunk: bc.Chunk, low: bc.Low, high: bc.High,
			last: bc.Last, cells: wp, entries: slices[w],
		}
		b.out.EmitDirect(b.c.layout.task(slot, w), topology.Values{kindBackfillChunk, QueryIDString(bc.QueryHash), payload})
	}
}

func (b *queryIngestBolt) Cleanup() {}

// TenantQueryHash derives the partitioning hash from the tenant and the
// canonical query identity, so distinct subscriptions to the same query are
// always routed to the same partition (§5.1) while tenants stay isolated.
// Application servers remember this hash for the lifetime of a subscription
// and attach it to cancellation requests and leases.
func TenantQueryHash(tenant string, q *query.Query) uint64 {
	return q.Hash() ^ document.HashKey("tenant:"+tenant)
}

// maxWriteBatch bounds how many after-images a single batch tuple carries.
// Batches flush at this cap or when the bolt's input queue drains (Idle),
// whichever comes first, so latency under light load stays at one queue
// drain rather than a timer tick.
const maxWriteBatch = 64

// writeIngestBolt is a stateless write ingestion node (§5.1): it parses
// after-images and hashes the primary key to a write partition. Instead of
// one tuple per write per query partition, writes are buffered per column
// and delivered as a single batch tuple per (query partition, column) pair,
// amortizing routing and channel sends across the batch.
type writeIngestBolt struct {
	c    *Cluster
	out  topology.Collector
	cols [][]*WriteEvent // buffered after-images, one slice per write partition
}

func newWriteIngestBolt(c *Cluster) topology.Bolt { return &writeIngestBolt{c: c} }

func (b *writeIngestBolt) Prepare(ctx *topology.BoltContext, out topology.Collector) error {
	b.out = out
	// One batch per local grid column (the fixed column capacity, not the
	// current map's write-partition count, which changes across resizes).
	b.cols = make([][]*WriteEvent, b.c.layout.cols)
	return nil
}

func (b *writeIngestBolt) Execute(t *topology.Tuple) {
	raw, _ := t.Get("payload")
	data, ok := raw.([]byte)
	if !ok {
		return
	}
	env, err := DecodeWire(data)
	if err != nil {
		return
	}
	if env.Kind == KindBackfillMark {
		b.handleMark(env.BackfillMark)
		return
	}
	if env.Kind != KindWrite {
		return
	}
	img, err := b.c.opts.Engine.DecodeImage(env.Write.Image)
	if err != nil {
		return
	}
	b.c.registerTenant(env.Write.Tenant)
	// Writes route ONLY by the current map: during a query-partition resize
	// the old rows keep receiving every write (all owned rows get the
	// column's batches); during a write-partition resize the subscription's
	// re-install (a fresh read, or a migration backfill with the application
	// server's Backfill on) covers anything that raced the column flip.
	cur := b.c.maps.current()
	if cur == nil {
		return // a named process awaiting its first partition map
	}
	b.c.mWrites.Inc()
	we := &WriteEvent{
		Tenant: env.Write.Tenant,
		Image:  img,
		SentNs: env.Write.SentNs,
		//invalidb:allow coarseclock deliberate stage-boundary stamp: per-write wall time feeds the latency breakdown (DESIGN.md §8)
		IngestNs: time.Now().UnixNano(),
	}
	w := int(document.HashKey(img.Key) % uint64(cur.m.WritePartitions))
	if w >= len(b.cols) {
		return // map wider than this node's column capacity; not our write
	}
	b.cols[w] = append(b.cols[w], we)
	if len(b.cols[w]) >= maxWriteBatch {
		b.flush(w)
	}
}

// handleMark is the watermark near-barrier (DESIGN.md §12): every column
// batch buffered by THIS ingest node is flushed before the mark is broadcast
// to every matching cell, so on each of this node's output channels the mark
// trails every write it was published behind. With several shuffle-grouped
// ingest nodes the barrier is approximate — a write routed through a slower
// sibling can still arrive after the mark — which is why chunk installation
// additionally carries the never-regress version guard and a retention
// replay; the mark closes the common case, the guards close the residue.
func (b *writeIngestBolt) handleMark(m *BackfillMark) {
	b.Idle()
	// Marks go to EVERY local cell, owned or idle: write ingestion cannot
	// know which rows run backfills, and a cell that just gained a row in a
	// resize needs the watermark stream from the first mark on.
	vals := topology.Values{kindBackfillMark, "", m}
	for task := 0; task < b.c.layout.tasks(); task++ {
		b.out.EmitDirect(task, vals)
	}
}

// Idle flushes every pending column batch once the input queue drains; under
// load batches fill to maxWriteBatch before the queue ever empties.
func (b *writeIngestBolt) Idle() {
	for w := range b.cols {
		if len(b.cols[w]) > 0 {
			b.flush(w)
		}
	}
}

func (b *writeIngestBolt) flush(w int) {
	events := b.cols[w]
	// Deliver to column w of every row this process currently owns. A map
	// installed between enqueue and flush may have reassigned rows; the moved
	// subscription's re-install (a fresh read, or a migration backfill) covers
	// the gap, so flushing under the map of the moment is safe (and the only
	// option — the old tasks may not exist here anymore).
	cur := b.c.maps.current()
	if cur == nil || len(cur.owned) == 0 {
		b.cols[w] = events[:0]
		return
	}
	if len(events) == 1 {
		// Single-event fast path: a batch wrapper would cost two extra
		// allocations per write under light (latency-sensitive) load, where
		// batches rarely grow past one.
		vals := topology.Values{kindWrite, "", events[0]}
		for _, rs := range cur.owned {
			b.out.EmitDirect(b.c.layout.task(rs.slot, w), vals)
		}
		b.cols[w] = events[:0] // nothing escaped but the event itself
		return
	}
	vals := topology.Values{kindWriteBatch, "", &writeBatch{events: events}}
	for _, rs := range cur.owned {
		b.out.EmitDirect(b.c.layout.task(rs.slot, w), vals)
	}
	// The batch escaped into downstream tuples, so start a fresh slice.
	b.cols[w] = nil
}

func (b *writeIngestBolt) Cleanup() {}
