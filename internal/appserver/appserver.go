// Package appserver implements the InvaliDB client (paper Figure 1): the
// lightweight process on the application server that brokers between end
// users, the pull-based database, and the InvaliDB cluster. It executes
// writes through FindAndModify and forwards the after-images to the cluster,
// runs initial queries (rewriting sorted queries with slack, §5.2),
// subscribes and renews real-time queries, leases TTLs, watches heartbeats,
// and fans change notifications out to end-user subscriptions.
package appserver

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
	"invalidb/internal/ratelimit"
	"invalidb/internal/storage"
)

// Options configures an application server.
type Options struct {
	// Tenant identifies this application within the multi-tenant cluster.
	// Default "default".
	Tenant string
	// Namespace must match the cluster's event-layer namespace.
	Namespace string
	// Slack is the number of items fetched beyond the limit of sorted
	// queries (§5.2). Default 3.
	Slack int
	// MaxSlack caps the adaptive slack growth applied on query renewals.
	// Default 64.
	MaxSlack int
	// TTL is the subscription time-to-live registered with the cluster.
	// Default 30s.
	TTL time.Duration
	// ExtendInterval is the lease cadence: every interval one lease extends
	// the TTL of every subscription. Default TTL/3.
	ExtendInterval time.Duration
	// HeartbeatTimeout marks the server disconnected when no cluster
	// heartbeat arrives for this long (§5.1): every subscription receives a
	// single EventDisconnected but stays alive, and when heartbeats resume
	// the server automatically re-subscribes each query, surfacing one
	// EventReconnected with the refreshed result (as after a heartbeat that
	// shows a restarted node). Default 5s. Negative disables the watchdog.
	HeartbeatTimeout time.Duration
	// RenewalMinInterval is the poll frequency rate limit (§5.2): at most
	// one query renewal per query per interval, keeping the renewal load on
	// the database predictable. Default 100ms.
	RenewalMinInterval time.Duration
	// EventBuffer bounds how many events may wait behind a subscription's
	// consumer. It is a bound, not a reservation: the queue is empty while
	// the consumer keeps up and grows with its lag; a consumer further behind
	// than this receives one event carrying the full current result in place
	// of what it missed (Subscription.Dropped counts those). Default 1024.
	EventBuffer int
	// Backfill switches unsorted subscriptions from the monolithic bootstrap
	// (one FindEntries over the full result, shipped in a single subscribe
	// request) to the incremental watermark-certified backfill (DESIGN.md
	// §12): the initial result is read in chunks bracketed by watermarks,
	// each chunk is certified by every cell of the query's row, and the
	// subscription is admitted — EventInitial delivered — only after the
	// final cut is certified. Ordered queries always use the legacy path
	// (the sorting stage needs the full result at install time).
	Backfill bool
	// BackfillChunkSize is the per-chunk key budget. Default 256.
	BackfillChunkSize int
	// BackfillChunkTimeout bounds the wait for a chunk's certificates before
	// the chunk is re-read and re-sent under a fresh watermark window.
	// Default 2s.
	BackfillChunkTimeout time.Duration
	// WriteCapacity throttles the server's write path to this many
	// operations per second (0 = unlimited). It models the per-server CPU
	// budget the paper's Quaestor evaluation measured: a single application
	// server topped out near 6 000 ops/s regardless of cluster capacity
	// (§7.3, Figure 6b).
	WriteCapacity int
	// Metrics receives the server's counters, gauges, and the per-stage
	// latency recorders fed by notification stage timestamps. Nil creates
	// a private registry; read it back via Server.Metrics.
	Metrics *metrics.Registry
}

func (o Options) withDefaults() Options {
	if o.Tenant == "" {
		o.Tenant = "default"
	}
	if o.Slack <= 0 {
		o.Slack = 3
	}
	if o.MaxSlack <= 0 {
		o.MaxSlack = 64
	}
	if o.TTL <= 0 {
		o.TTL = 30 * time.Second
	}
	if o.ExtendInterval <= 0 {
		o.ExtendInterval = o.TTL / 3
	}
	if o.HeartbeatTimeout == 0 {
		o.HeartbeatTimeout = 5 * time.Second
	}
	if o.RenewalMinInterval <= 0 {
		o.RenewalMinInterval = 100 * time.Millisecond
	}
	if o.EventBuffer <= 0 {
		o.EventBuffer = 1024
	}
	if o.BackfillChunkSize <= 0 {
		o.BackfillChunkSize = 256
	}
	if o.BackfillChunkTimeout <= 0 {
		o.BackfillChunkTimeout = 2 * time.Second
	}
	return o
}

// Server is one application server instance. Many servers can share one
// cluster (multi-tenancy) and one server can hold many end-user
// subscriptions over a single notification-topic subscription, mirroring the
// single WebSocket connection per server at Baqend (§7.2).
type Server struct {
	db     *storage.DB
	bus    eventlayer.Bus
	opts   Options
	topics core.Topics

	mu         sync.Mutex
	subsByID   map[string]*Subscription
	subsByHash map[uint64]map[string]*Subscription
	renewals   map[uint64]time.Time // per-query poll rate limit
	closed     bool

	notifSub  eventlayer.Subscription
	lastHB    time.Time
	connected bool // false while the cluster heartbeat is overdue
	hbMu      sync.Mutex
	// nodes holds, per emitting cluster node ("" in single-process clusters), the
	// heartbeat that first showed its current incarnation. Owned by notifLoop.
	nodes map[string]core.Heartbeat

	// pmap is the newest partition map from the coordinator's retained
	// control topic (nil in static clusters).
	pmMu sync.Mutex
	pmap *core.PartitionMap

	done chan struct{}
	wg   sync.WaitGroup

	rngMu sync.Mutex
	rng   *rand.Rand

	writeBucket *ratelimit.Bucket
	renewalsCtr atomic.Uint64
	reconnects  atomic.Uint64

	// One re-subscription pass runs at a time (resubBusy); requests that
	// arrive meanwhile share one more pass after it (resubAgain) over the
	// union of their scopes (resubNext).
	resubMu               sync.Mutex
	resubBusy, resubAgain bool
	resubNext             scope

	// bfCerts routes backfill certificates from the notification loop to the
	// per-backfill driver goroutines; backfillActive counts in-flight
	// backfills (the backfill.active gauge).
	bfMu           sync.Mutex
	bfCerts        map[string]chan *core.BackfillCert
	backfillActive atomic.Int64

	// metrics instruments this server; hot-path counters are resolved once
	// here so the per-event cost is one atomic add.
	metrics     *metrics.Registry
	mWrites     *metrics.Int // after-images forwarded to the cluster
	mNotifs     *metrics.Int // notifications dispatched to subscriptions
	mDedupDrops *metrics.Int // notifications dropped by seq/version dedup
	mEventDrops *metrics.Int // events a lagging consumer's queue replaced by a result snapshot
	mResubs     *metrics.Int // re-subscriptions published (failover recovery)
	// mResubBackoff counts backoff sleeps taken while retrying a failed
	// re-subscription publish; mBackfillRetries counts chunk re-sends after
	// a certificate timeout; mMigrations counts subscriptions re-installed
	// because a partition-map epoch moved their query row (reinstall).
	mResubBackoff    *metrics.Int
	mBackfillRetries *metrics.Int
	mMigrations      *metrics.Int
	mClusterRestarts *metrics.Int // heartbeats that showed a node restarted or replaced
}

// New creates an application server over a database and the cluster's event
// layer and starts its background loops.
func New(db *storage.DB, bus eventlayer.Bus, opts Options) (*Server, error) {
	if db == nil || bus == nil {
		return nil, fmt.Errorf("appserver: nil database or event layer")
	}
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	s := &Server{
		db:          db,
		bus:         bus,
		opts:        opts,
		topics:      core.NewTopics(opts.Namespace),
		subsByID:    map[string]*Subscription{},
		subsByHash:  map[uint64]map[string]*Subscription{},
		renewals:    map[uint64]time.Time{},
		lastHB:      time.Now(),
		connected:   true,
		done:        make(chan struct{}),
		rng:         rand.New(rand.NewSource(time.Now().UnixNano())),
		metrics:     reg,
		mWrites:     reg.Counter("appserver.writes"),
		mNotifs:     reg.Counter("appserver.notifications"),
		mDedupDrops: reg.Counter("appserver.dedup_drops"),
		mEventDrops: reg.Counter("appserver.event_drops"),
		mResubs:     reg.Counter("appserver.resubscribes"),

		nodes:            map[string]core.Heartbeat{},
		bfCerts:          map[string]chan *core.BackfillCert{},
		mResubBackoff:    reg.Counter("appserver.resubscribe.backoff"),
		mBackfillRetries: reg.Counter("backfill.retries"),
		mMigrations:      reg.Counter("appserver.migrations"),
		mClusterRestarts: reg.Counter("appserver.cluster_restarts"),
	}
	core.RegisterWireMetrics(reg)
	reg.Gauge("appserver.subscriptions", func() float64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return float64(len(s.subsByID))
	})
	reg.Gauge("appserver.connected", func() float64 {
		if s.Connected() {
			return 1
		}
		return 0
	})
	reg.Gauge("appserver.renewals", func() float64 { return float64(s.renewalsCtr.Load()) })
	reg.Gauge("appserver.reconnects", func() float64 { return float64(s.reconnects.Load()) })
	reg.Gauge("backfill.active", func() float64 { return float64(s.backfillActive.Load()) })
	reg.Gauge("appserver.epoch", func() float64 {
		if m := s.currentMap(); m != nil {
			return float64(m.Epoch)
		}
		return 0
	})
	if opts.WriteCapacity > 0 {
		s.writeBucket = ratelimit.New(float64(opts.WriteCapacity), 0) // ratelimit's default burst
	}
	// The control topic is retained, so a server that starts after the
	// coordinator published the current partition map still learns it here.
	sub, err := bus.Subscribe(s.topics.Notify(opts.Tenant), s.topics.Control())
	if err != nil {
		return nil, fmt.Errorf("appserver: subscribe notifications: %w", err)
	}
	s.notifSub = sub
	s.wg.Add(2)
	go s.notifLoop()
	go s.maintenanceLoop()
	return s, nil
}

// Tenant returns the server's tenant id.
func (s *Server) Tenant() string { return s.opts.Tenant }

// DB exposes the underlying pull-based database.
func (s *Server) DB() *storage.DB { return s.db }

// Close cancels all subscriptions and stops background loops. The database
// stays usable: the pull-based path does not depend on InvaliDB (isolated
// failure domains, §5).
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	subs := make([]*Subscription, 0, len(s.subsByID))
	for _, sub := range s.subsByID {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	for _, sub := range subs {
		_ = sub.Close()
	}
	close(s.done)
	_ = s.notifSub.Close()
	s.wg.Wait()
	return nil
}

// --- Write path -----------------------------------------------------------

// forward ships an after-image to the cluster (§5.4: the after-image
// returned by FindAndModify is simply forwarded).
func (s *Server) forward(ai *document.AfterImage) error {
	if s.writeBucket != nil {
		s.writeBucket.Take(1)
	}
	env := &core.Envelope{Kind: core.KindWrite, Write: &core.WriteEvent{
		Tenant: s.opts.Tenant,
		Image:  ai,
		SentNs: time.Now().UnixNano(),
	}}
	data, err := env.Encode()
	if err != nil {
		return err
	}
	s.mWrites.Inc()
	return s.bus.Publish(s.topics.Writes(), data)
}

// Insert stores a new document and notifies the cluster.
func (s *Server) Insert(collection string, doc document.Document) error {
	ai, err := s.db.C(collection).Insert(doc)
	if err != nil {
		return err
	}
	return s.forward(ai)
}

// Update applies a MongoDB update document via FindAndModify and notifies
// the cluster.
func (s *Server) Update(collection, key string, update map[string]any) error {
	ai, err := s.db.C(collection).FindAndModify(key, update, false)
	if err != nil {
		return err
	}
	return s.forward(ai)
}

// Upsert is Update with insert-on-missing semantics.
func (s *Server) Upsert(collection, key string, update map[string]any) error {
	ai, err := s.db.C(collection).FindAndModify(key, update, true)
	if err != nil {
		return err
	}
	return s.forward(ai)
}

// Replace overwrites a document wholesale and notifies the cluster.
func (s *Server) Replace(collection, key string, doc document.Document) error {
	ai, err := s.db.C(collection).Replace(key, doc)
	if err != nil {
		return err
	}
	return s.forward(ai)
}

// Delete removes a document; the forwarded after-image is null (§5.4).
func (s *Server) Delete(collection, key string) error {
	ai, err := s.db.C(collection).Delete(key)
	if err != nil {
		return err
	}
	return s.forward(ai)
}

// --- Pull-based queries ----------------------------------------------------

// Query executes a pull-based query against the database.
func (s *Server) Query(spec query.Spec) ([]document.Document, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return nil, err
	}
	return s.db.C(q.Collection).Find(q)
}

// --- Subscriptions ----------------------------------------------------------

// QueryHash compiles spec and returns its tenant-scoped fixed64 hash — the
// key subscriptions are registered under with the cluster, and therefore
// the key under which the gateway dedupes client subscriptions onto one
// upstream Subscription per distinct query.
func (s *Server) QueryHash(spec query.Spec) (uint64, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return 0, err
	}
	return core.TenantQueryHash(s.opts.Tenant, q), nil
}

func (s *Server) newSubscriptionID() string {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return fmt.Sprintf("s%08x%08x", s.rng.Uint32(), s.rng.Uint32())
}

// Subscribe activates a push-based real-time query: it executes the
// (rewritten) query for the initial result, registers the query with the
// cluster, and returns a Subscription streaming the initial result followed
// by incremental change events.
func (s *Server) Subscribe(spec query.Spec) (*Subscription, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, fmt.Errorf("appserver: server closed")
	}
	s.mu.Unlock()

	sub := s.newSubscription(q)
	if m := s.currentMap(); m != nil {
		sub.place = placeFor(m, sub.hash)
	}

	if s.opts.Backfill && !sub.ordered {
		// Watermark-certified backfill (DESIGN.md §12): the subscription is
		// attached (so live deltas fold into its state from the first chunk
		// on) but not admitted — EventInitial arrives once every chunk of
		// the initial result is certified by the full query row.
		sub.backfilling = true
		s.attach(sub)
		s.wg.Add(1)
		go s.backfillLoop(sub)
		return sub, nil
	}

	entries, err := s.bootstrapResult(q, sub.slack)
	if err != nil {
		return nil, err
	}

	// Register locally before the cluster sees the query so no notification
	// can race past the routing table.
	s.attach(sub)

	if err := s.publishSubscribe(sub, entries); err != nil {
		s.detach(sub)
		return nil, err
	}
	sub.installInitial(entries)
	return sub, nil
}

// attach registers a subscription in the routing tables.
func (s *Server) attach(sub *Subscription) {
	s.mu.Lock()
	s.subsByID[sub.id] = sub
	byHash := s.subsByHash[sub.hash]
	if byHash == nil {
		byHash = map[string]*Subscription{}
		s.subsByHash[sub.hash] = byHash
	}
	byHash[sub.id] = sub
	s.mu.Unlock()
}

// bootstrapResult executes the rewritten query (§5.2) and returns its
// versioned entries in engine order.
func (s *Server) bootstrapResult(q *query.Query, slack int) ([]core.ResultEntry, error) {
	rewritten := q.Rewritten(slack)
	rows, err := s.db.C(q.Collection).FindEntries(rewritten)
	if err != nil {
		return nil, err
	}
	entries := make([]core.ResultEntry, len(rows))
	for i, r := range rows {
		entries[i] = core.ResultEntry{Key: r.Key, Version: r.Version, Doc: r.Doc}
	}
	return entries, nil
}

func (s *Server) publishSubscribe(sub *Subscription, entries []core.ResultEntry) error {
	env := &core.Envelope{Kind: core.KindSubscribe, Subscribe: &core.SubscribeRequest{
		Tenant:         s.opts.Tenant,
		SubscriptionID: sub.id,
		Query:          sub.q.Spec(),
		Slack:          sub.slack,
		TTLMillis:      s.opts.TTL.Milliseconds(),
		Result:         entries,
		Epoch:          sub.epoch(),
	}}
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return s.bus.Publish(s.topics.Queries(), data)
}

// detach removes a subscription from the routing tables.
func (s *Server) detach(sub *Subscription) {
	s.mu.Lock()
	delete(s.subsByID, sub.id)
	if byHash := s.subsByHash[sub.hash]; byHash != nil {
		delete(byHash, sub.id)
		if len(byHash) == 0 {
			delete(s.subsByHash, sub.hash)
		}
	}
	s.mu.Unlock()
}

// cancel publishes the cancellation with the remembered query hash (§5.1),
// addressed at the epoch the subscription is currently installed under.
func (s *Server) cancel(sub *Subscription) {
	s.cancelAt(sub, sub.epoch())
}

// cancelAt publishes a cancellation stamped with an explicit map epoch, so
// a migration can tear down the OLD owner's install without touching the
// new one.
func (s *Server) cancelAt(sub *Subscription, epoch uint64) {
	env := &core.Envelope{Kind: core.KindCancel, Cancel: &core.CancelRequest{
		Tenant:         s.opts.Tenant,
		SubscriptionID: sub.id,
		QueryHash:      sub.hash,
		Epoch:          epoch,
	}}
	if data, err := env.Encode(); err == nil {
		_ = s.bus.Publish(s.topics.Queries(), data)
	}
}

// --- Background loops -------------------------------------------------------

func (s *Server) notifLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case msg, ok := <-s.notifSub.C():
			if !ok {
				return
			}
			env, err := core.DecodeWire(msg.Payload)
			if err != nil {
				continue
			}
			switch env.Kind {
			case core.KindHeartbeat:
				s.handleHeartbeat(env.Heartbeat)
			case core.KindNotification:
				s.dispatch(env.Notification)
			case core.KindBackfillCert:
				s.routeBackfillCert(env.BackfillCert)
			case core.KindPartitionMap:
				s.handleMap(env.Map)
			}
		}
	}
}

// handleHeartbeat feeds the watchdog and watches the emitter's incarnation.
// The cluster repairs nothing itself (DESIGN.md §3.4): heartbeats resuming
// after a gap, a different Boot (process replaced) and a higher Restarts (a
// stateful task came back empty) all get one answer — re-subscribe from the
// database. Runs on the notification loop, so it never blocks.
func (s *Server) handleHeartbeat(h *core.Heartbeat) {
	s.hbMu.Lock()
	s.lastHB = time.Now()
	wasDown := !s.connected
	s.connected = true
	s.hbMu.Unlock()
	// A node never heard from is taken to have restarted nothing: restarts its
	// first heartbeat counts may have hit queries installed before it. And the
	// event layer reorders and duplicates: a heartbeat older than the one that
	// showed the current incarnation must not flip it back.
	prev, seen := s.nodes[h.Node]
	changed := h.TimeMillis >= prev.TimeMillis && (seen && h.Boot != prev.Boot || h.Restarts > prev.Restarts)
	if changed || !seen {
		s.nodes[h.Node] = *h
	}
	if changed {
		s.mClusterRestarts.Inc()
		s.restartBackfills(h.Node)
	}
	var in scope // nil: every subscription
	switch {
	case wasDown: // any query may be lost (a renewal for those that survived)
		s.reconnects.Add(1)
	case changed:
		in = func(old, _ placement) bool { return old.on(h.Node) }
	default:
		return
	}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.resubscribe(in)
	}()
}

func (s *Server) dispatch(n *core.Notification) {
	recvNs := time.Now().UnixNano()
	hash, ok := core.ParseQueryID(n.QueryID)
	if !ok {
		return
	}
	s.mu.Lock()
	var subs []*Subscription
	for _, sub := range s.subsByHash[hash] {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	if len(subs) == 0 {
		return
	}
	if n.Type == core.MatchError {
		// Query maintenance error: a renewal request (§5.2). Renew once for
		// the query, transparently to subscribers.
		s.renew(hash, subs[0])
		return
	}
	s.mNotifs.Inc()
	for _, sub := range subs {
		sub.apply(n)
	}
	// Close the trace: each stage is the gap between adjacent stamps, with
	// this server contributing the receive→delivery tail.
	s.metrics.RecordStages(n.WriteNs, n.IngestNs, n.MatchNs, recvNs, time.Now().UnixNano())
}

// renew re-executes the rewritten query and re-subscribes, subject to the
// poll frequency rate limit that keeps renewal load on the database
// predictable and configurable (§5.2).
func (s *Server) renew(hash uint64, sub *Subscription) {
	now := time.Now()
	s.mu.Lock()
	if last, ok := s.renewals[hash]; ok && now.Sub(last) < s.opts.RenewalMinInterval {
		s.mu.Unlock()
		return
	}
	s.renewals[hash] = now
	s.mu.Unlock()
	s.renewalsCtr.Add(1)

	// Adapt the slack upward (§5.2 footnote: a higher slack value increases
	// robustness against deletes on reexecution).
	sub.mu.Lock()
	if sub.slack < s.opts.MaxSlack {
		sub.slack *= 2
		if sub.slack > s.opts.MaxSlack {
			sub.slack = s.opts.MaxSlack
		}
	}
	slack := sub.slack
	sub.mu.Unlock()

	entries, err := s.bootstrapResult(sub.q, slack)
	if err != nil {
		sub.fail(fmt.Errorf("appserver: query renewal failed: %w", err))
		return
	}
	if err := s.publishSubscribe(sub, entries); err != nil {
		sub.fail(fmt.Errorf("appserver: query renewal failed: %w", err))
	}
}

// Renewals reports how many query renewals this server has executed — the
// pull-query load the poll frequency rate limit bounds (§5.2).
func (s *Server) Renewals() uint64 { return s.renewalsCtr.Load() }

// maintenanceLoop leases the subscriptions' TTLs and watches heartbeats.
func (s *Server) maintenanceLoop() {
	defer s.wg.Done()
	extend := time.NewTicker(s.opts.ExtendInterval)
	defer extend.Stop()
	// Check the heartbeat a few times per timeout so short timeouts (tests,
	// aggressive deployments) are detected promptly.
	interval := 500 * time.Millisecond
	if s.opts.HeartbeatTimeout > 0 && s.opts.HeartbeatTimeout/4 < interval {
		interval = s.opts.HeartbeatTimeout / 4
	}
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	hbCheck := time.NewTicker(interval)
	defer hbCheck.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-extend.C:
			s.lease()
		case <-hbCheck.C:
			if s.opts.HeartbeatTimeout < 0 {
				continue
			}
			s.hbMu.Lock()
			stale := time.Since(s.lastHB) > s.opts.HeartbeatTimeout
			firstGap := stale && s.connected
			if firstGap {
				s.connected = false
			}
			s.hbMu.Unlock()
			if firstGap {
				s.disconnectAll(fmt.Errorf("appserver: cluster heartbeat timed out"))
			}
		}
	}
}

// leaseChunk bounds the entries of one lease frame: a lease of N
// subscriptions is ⌈N/leaseChunk⌉ frames of about 100 KiB at most, far below
// the event layer's 16 MiB frame limit, where one frame per subscription
// overflowed the broker's 4 096-frame session queue.
const leaseChunk = 4096

// lease extends the TTL of every subscription this server holds (§5.1), in
// frames of at most leaseChunk entries; with none it publishes nothing.
func (s *Server) lease() {
	s.mu.Lock()
	subs := make([]core.LeaseEntry, 0, len(s.subsByID))
	for id, sub := range s.subsByID {
		subs = append(subs, core.LeaseEntry{SubscriptionID: id, QueryHash: sub.hash})
	}
	s.mu.Unlock()
	for len(subs) > 0 {
		n := min(len(subs), leaseChunk)
		_ = s.publishEnvelope(s.topics.Queries(), &core.Envelope{Kind: core.KindLease, Lease: &core.Lease{
			Tenant: s.opts.Tenant, TTLMillis: s.opts.TTL.Milliseconds(), Subs: subs[:n],
		}})
		subs = subs[n:]
	}
}

// disconnectAll pushes a single EventDisconnected to every subscription.
// Subscriptions stay alive: unlike terminating them outright, the outage is
// survivable — once heartbeats resume, a re-subscription restores every
// delivery stream and clients never have to rebuild their state machinery
// (§5.1: clients may fall back to pull-based queries in the meantime).
func (s *Server) disconnectAll(err error) {
	for _, sub := range s.snapshotSubs() {
		sub.disconnect(err)
	}
}

// scope selects the subscriptions a re-subscription pass re-installs, from
// the placement a subscription was installed under (old) and its placement
// under the newest map (np); nil selects every subscription.
type scope func(old, np placement) bool

// or unites two scopes; nil (every subscription) absorbs the other.
func (a scope) or(b scope) scope {
	if a == nil || b == nil {
		return nil
	}
	return func(old, np placement) bool { return a(old, np) || b(old, np) }
}

// resubscribe re-installs the subscriptions in scope (reinstall): a renewal
// for queries the cluster still maintains, a fresh activation for those it
// lost, a move for those a partition map placed elsewhere. Concurrent
// invocations coalesce: while a pass runs, further requests return at once
// and share one more pass after it over the union of their scopes — a fault
// observed mid-pass must still reach the subscriptions the pass had already
// handled. Heartbeat recovery and map changes therefore never re-install
// concurrently.
func (s *Server) resubscribe(in scope) {
	s.resubMu.Lock()
	if s.resubBusy {
		if s.resubAgain {
			in = s.resubNext.or(in)
		}
		s.resubAgain, s.resubNext = true, in
		s.resubMu.Unlock()
		return
	}
	s.resubBusy = true
	for again := true; again; {
		s.resubMu.Unlock()
		for _, sub := range s.snapshotSubs() {
			s.reinstall(sub, in)
		}
		s.resubMu.Lock()
		again, in = s.resubAgain, s.resubNext
		s.resubAgain, s.resubNext = false, nil
	}
	s.resubBusy = false
	s.resubMu.Unlock()
}

// reinstall is the one repair step of a subscription: it re-places the
// subscription under the newest map and, when in selects it, bootstraps the
// query afresh, publishes the subscribe (retrying transient failures), and
// resets the subscription to the fresh result (EventReconnected). A
// subscription out of scope whose owner is unchanged just adopts the newest
// epoch. When the owner changed, the old install is cancelled at its old
// epoch: before the publish for ordered queries, whose windows cannot
// compose diffs from two origins at once, after it for unordered ones, so
// the old owner keeps notifying until the new one is live. A moved unordered
// subscription with Backfill on migrates through the watermark-certified
// backfill instead (DESIGN.md §13): no gap, no reset.
func (s *Server) reinstall(sub *Subscription, in scope) {
	sub.mu.Lock()
	slack, closed, backfilling, old := sub.slack, sub.closed, sub.backfilling, sub.place
	sub.mu.Unlock()
	if closed || backfilling {
		// A backfill in flight recovers on its own (chunk timeouts,
		// restartBackfills) and re-checks the placement at admission; a
		// re-bootstrap here would race the incremental admission.
		return
	}
	np := old
	if m := s.currentMap(); m != nil {
		np = placeFor(m, sub.hash)
	}
	moved := old.moved(np)
	if in != nil && !in(old, np) {
		if !moved {
			sub.setPlace(np)
		}
		return
	}
	retire := old.known && !old.sameOwner(np)
	if moved {
		s.mMigrations.Inc()
		if s.opts.Backfill && !sub.ordered {
			switch err := s.runBackfill(sub, np, true); err {
			case nil:
				sub.setPlace(np)
				if retire {
					s.cancelAt(sub, old.epoch)
				}
				return
			case errBackfillAborted:
				return
			}
			// A failed migration backfill (e.g. the new owner restarted
			// mid-migration) still needs the row installed somewhere.
		}
	}
	if sub.ordered && retire {
		s.cancelAt(sub, old.epoch)
	}
	entries, err := s.bootstrapResult(sub.q, slack)
	if err != nil {
		// A failed bootstrap query is terminal: the local database is
		// broken, retrying against it buys nothing.
		sub.fail(fmt.Errorf("appserver: re-subscription failed: %w", err))
		return
	}
	sub.setPlace(np)
	if err := s.publishSubscribeRetry(sub, entries); err != nil {
		sub.fail(fmt.Errorf("appserver: re-subscription failed: %w", err))
		return
	}
	if !sub.ordered && retire {
		s.cancelAt(sub, old.epoch)
	}
	s.mResubs.Inc()
	sub.reset(entries)
}

// publishSubscribeRetry publishes a re-subscription, retrying transient
// event-layer failures (the broker is the very component whose outage
// triggered the recovery) with jittered exponential backoff capped at the
// heartbeat watchdog interval. Each backoff sleep is counted on
// appserver.resubscribe.backoff; retries stop when the subscription or the
// server closes.
func (s *Server) publishSubscribeRetry(sub *Subscription, entries []core.ResultEntry) error {
	err := s.publishSubscribe(sub, entries)
	maxDelay := s.opts.HeartbeatTimeout
	if maxDelay <= 0 {
		maxDelay = 5 * time.Second
	}
	for attempt := 0; err != nil; attempt++ {
		s.mResubBackoff.Inc()
		if !s.sleepInterruptible(s.jitteredBackoff(attempt, 25*time.Millisecond, maxDelay)) {
			return err
		}
		sub.mu.Lock()
		closed := sub.closed
		sub.mu.Unlock()
		if closed {
			return err
		}
		err = s.publishSubscribe(sub, entries)
	}
	return err
}

// jitteredBackoff returns base·2^attempt, capped at max, with ±25% jitter so
// a fleet of recovering subscriptions does not hammer the broker in
// lockstep.
func (s *Server) jitteredBackoff(attempt int, base, max time.Duration) time.Duration {
	d := base << uint(attempt)
	if d > max || d <= 0 {
		d = max
	}
	s.rngMu.Lock()
	jitter := time.Duration(s.rng.Int63n(int64(d)/2+1)) - d/4
	s.rngMu.Unlock()
	return d + jitter
}

// sleepInterruptible sleeps for d unless the server closes first, reporting
// whether the full sleep elapsed.
func (s *Server) sleepInterruptible(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.done:
		return false
	case <-t.C:
		return true
	}
}

func (s *Server) snapshotSubs() []*Subscription {
	s.mu.Lock()
	subs := make([]*Subscription, 0, len(s.subsByID))
	for _, sub := range s.subsByID {
		subs = append(subs, sub)
	}
	s.mu.Unlock()
	return subs
}

// Resubscribe forces an immediate re-subscription of every active
// subscription, synchronously. It is the manual counterpart of the
// automatic post-outage recovery and is also useful after healing an
// event-layer partition that silently dropped subscribe requests.
func (s *Server) Resubscribe() { s.resubscribe(nil) }

// Reconnects reports how many times the server has observed cluster
// heartbeats resume after an outage and triggered automatic re-subscription.
func (s *Server) Reconnects() uint64 { return s.reconnects.Load() }

// Connected reports whether cluster heartbeats are currently arriving
// within the configured timeout.
func (s *Server) Connected() bool {
	s.hbMu.Lock()
	defer s.hbMu.Unlock()
	return s.connected
}

// Metrics returns the server's registry (the Options.Metrics instance,
// or the private one created in its absence). Its stage recorders hold
// the per-stage latency breakdown of every notification delivered.
func (s *Server) Metrics() *metrics.Registry { return s.metrics }
