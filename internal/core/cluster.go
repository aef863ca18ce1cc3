package core

import (
	"fmt"
	"math/rand/v2"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/eventlayer"
	"invalidb/internal/metrics"
	"invalidb/internal/topology"
)

// Options configures an InvaliDB cluster.
type Options struct {
	// Namespace prefixes all event-layer topics. Default "invalidb".
	Namespace string
	// QueryPartitions (QP) and WritePartitions (WP) are this process's grid:
	// QP rows of matching cells, each WP columns wide, one cell per (row,
	// column). Adding query partitions raises the number of sustainable
	// concurrent queries (paper Figure 4), adding write partitions the
	// sustainable write throughput (Figure 5). For a coordinated process the
	// rows are the slots the coordinator places global rows on, and WP is the
	// column capacity a live write-partition resize grows into. Defaults 1.
	QueryPartitions int
	WritePartitions int
	// NodeID names this process; named = coordinated (DESIGN.md §13). An
	// unnamed process (the default) routes by the identity map of its own
	// grid, installed at construction. A named process receives its map from
	// the coordinator over the retained control topic and routes nothing
	// until the first one arrives.
	NodeID string
	// NodeCapacity throttles each matching node to this many
	// match-operations per second: a write costs one per query probed for it
	// plus one for the write itself (Cell.Cost). Zero disables throttling.
	// This is the simulation stand-in for the paper's per-node CPU budget
	// (nodes were capped to 80% of one core); saturation behaviour — queue
	// growth, then latency SLA violations — emerges as in the testbed.
	NodeCapacity int
	// RetentionTime bounds the write-stream retention buffer used for
	// subscription replay and staleness avoidance (§5.1; Baqend production
	// uses a few seconds). Default 5s.
	RetentionTime time.Duration
	// HeartbeatInterval is the cadence of heartbeats on tenant notification
	// topics. Default 1s.
	HeartbeatInterval time.Duration
	// TickInterval drives TTL expiry and retention pruning inside matching
	// nodes. Default 250ms.
	TickInterval time.Duration
	// QueueSize is the per-task input queue length. Default 4096.
	QueueSize int
	// Engine is the pluggable query engine. Default MongoEngine.
	Engine Engine
	// EnableQueryIndex activates the multi-query optimization on matching
	// nodes: queries with a numeric interval constraint are held in an
	// interval tree and only candidate queries are evaluated per
	// after-image, rather than all registered queries. With the index on,
	// the simulated per-write cost drops to the candidate count, mirroring
	// the real CPU saving.
	EnableQueryIndex bool
	// MatchHook, when set, is invoked at the top of every matching
	// node's Execute with the task id and the tuple kind. It exists for
	// fault injection in tests — a hook that panics simulates a crashing
	// matching node — and must be nil in production.
	MatchHook func(taskID int, kind string)
	// ExtraStages appends additional processing stages to the pipeline
	// behind the filtering stage (paper §5.2: "the process of generating
	// change notifications for more advanced queries is performed in
	// loosely coupled processing stages that can be scaled independently",
	// and §8.1's aggregation/join future work). Each stage receives the
	// filtering stage's per-query deltas and subscription bootstraps,
	// partitioned by query. See NewAggregationStage for a complete example.
	ExtraStages []Stage
	// Metrics receives the cluster's counters, gauges, and topology stats.
	// Nil creates a private registry (counters stay live either way, so
	// the instrumented path is always the one benchmarks measure); read it
	// back via Cluster.Metrics.
	Metrics *metrics.Registry
}

// Stage declares one extension processing stage.
type Stage struct {
	// Name is the stage's component id in the topology.
	Name string
	// Parallelism is the stage's node count. Zero selects 1.
	Parallelism int
	// Factory builds one bolt instance per node.
	Factory func(c *Cluster) topology.Bolt
}

// The stateless ingestion stages' node counts: the paper's fixed 1 and 4
// ("1 and 4 in all experiments", §6).
const (
	queryIngestNodes = 1
	writeIngestNodes = 4
)

// defaultTTL applies to subscribe requests and leases that carry no TTL.
const defaultTTL = 60 * time.Second

// ttlOf converts a request's TTLMillis, defaulting when it carries none.
func ttlOf(millis int64) time.Duration {
	if millis <= 0 {
		return defaultTTL
	}
	return time.Duration(millis) * time.Millisecond
}

func (o Options) withDefaults() Options {
	if o.Namespace == "" {
		o.Namespace = "invalidb"
	}
	if o.QueryPartitions <= 0 {
		o.QueryPartitions = 1
	}
	if o.WritePartitions <= 0 {
		o.WritePartitions = 1
	}
	if o.RetentionTime <= 0 {
		o.RetentionTime = 5 * time.Second
	}
	if o.HeartbeatInterval <= 0 {
		o.HeartbeatInterval = time.Second
	}
	if o.TickInterval <= 0 {
		o.TickInterval = 250 * time.Millisecond
	}
	if o.QueueSize <= 0 {
		o.QueueSize = 4096
	}
	if o.Engine == nil {
		o.Engine = MongoEngine{}
	}
	return o
}

// Cluster is a running InvaliDB cluster: a topology of ingestion, matching
// and sorting nodes wired to the event layer.
type Cluster struct {
	opts   Options
	topics Topics
	bus    eventlayer.Bus
	top    *topology.Topology

	// layout is the process-local grid geometry (rows x column capacity);
	// maps holds the installed partition-map epochs that route global rows
	// onto it. An unnamed process installs the identity map at construction,
	// so routing follows one code path whether the map is static or
	// coordinated.
	layout gridLayout
	maps   mapState

	tenantMu sync.RWMutex
	tenants  map[string]struct{}

	// boot identifies this Cluster value in its heartbeats: drawn once at
	// random, so a replacement process is told apart from the one it replaced
	// even when no heartbeat gap separates them.
	boot uint64
	// stateful names the components whose tasks hold query state; a
	// supervisor restart of one is reported in the heartbeat (Restarts).
	stateful map[string]bool
	// cells is one slot per match task, written by that cell only: what it
	// holds, stored on its tick (a restarted cell overwrites it with its
	// fresh, smaller count), and the work it has done, kept across restarts.
	cells []cellSlot

	stopHB  chan struct{}
	hbWG    sync.WaitGroup
	started bool
	mu      sync.Mutex

	// metrics instruments the pipeline. The hot-path counters below are
	// resolved once at construction so per-event cost is one atomic add.
	metrics   *metrics.Registry
	mWrites   *metrics.Int // after-images ingested into the grid
	mMatched  *metrics.Int // result changes produced by matching nodes
	mNotifs   *metrics.Int // notifications published on tenant topics
	mInstalls *metrics.Int // subscription installs processed by query ingest

	// Backfill counters (DESIGN.md §12): chunks reconciled by matching
	// cells, chunk rows superseded by in-window writes, retention-ring
	// writes replayed over a chunk's watermark window, and certificates
	// issued. replayed is the yardstick migration tests use: a migrated
	// subscription must replay only its watermark window, never the whole
	// retention ring.
	mBackfillChunks     *metrics.Int
	mBackfillReconciled *metrics.Int
	mBackfillReplayed   *metrics.Int
	mBackfillCertified  *metrics.Int
}

// NewCluster assembles a cluster over the given event layer. Call Start to
// begin processing.
func NewCluster(bus eventlayer.Bus, opts Options) (*Cluster, error) {
	if bus == nil {
		return nil, fmt.Errorf("core: nil event layer")
	}
	opts = opts.withDefaults()
	reg := opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	c := &Cluster{
		opts:      opts,
		topics:    NewTopics(opts.Namespace),
		bus:       bus,
		tenants:   map[string]struct{}{},
		boot:      rand.Uint64(),
		stateful:  map[string]bool{"match": true, "sort": true},
		stopHB:    make(chan struct{}),
		metrics:   reg,
		mWrites:   reg.Counter("cluster.writes_ingested"),
		mMatched:  reg.Counter("cluster.writes_matched"),
		mNotifs:   reg.Counter("cluster.notifications"),
		mInstalls: reg.Counter("cluster.subscribes"),

		mBackfillChunks:     reg.Counter("backfill.chunks"),
		mBackfillReconciled: reg.Counter("backfill.reconciled"),
		mBackfillReplayed:   reg.Counter("backfill.replayed"),
		mBackfillCertified:  reg.Counter("backfill.certified"),
	}

	c.layout = gridLayout{rows: opts.QueryPartitions, cols: opts.WritePartitions}
	if opts.NodeID == "" {
		// Static map. A named process waits for the coordinator's instead.
		c.maps.install(IdentityMap(opts.QueryPartitions, opts.WritePartitions), "")
	}
	c.cells = make([]cellSlot, c.layout.tasks())
	b := topology.NewBuilder()

	// Event-layer sources: one spout per inbound topic; the ingestion bolts
	// behind them are the paper's stateless ingestion nodes.
	b.SetSpout("query-src", func() topology.Spout {
		return newBusSpout(bus, c.topics.Queries())
	}, 1, "payload")
	b.SetSpout("write-src", func() topology.Spout {
		return newBusSpout(bus, c.topics.Writes())
	}, 1, "payload")
	b.SetSpout("tick", func() topology.Spout {
		return newTickSpout(opts.TickInterval)
	}, 1, "tick")

	b.SetBolt("query-ingest", func() topology.Bolt {
		return newQueryIngestBolt(c)
	}, queryIngestNodes, "kind", "qkey", "payload").
		DeclareStream(streamBootstrap, "kind", "qkey", "payload").
		ShuffleGrouping("query-src")

	b.SetBolt("write-ingest", func() topology.Bolt {
		return newWriteIngestBolt(c)
	}, writeIngestNodes, "kind", "qkey", "payload").
		ShuffleGrouping("write-src")

	b.SetBolt("match", func() topology.Bolt {
		return newMatchBolt(c)
	}, c.layout.tasks(), "kind", "qkey", "payload").
		TaskMeta(func(taskID int) any {
			row, col := c.layout.cell(taskID)
			return GridCell{Row: row, Col: col}
		}).
		DirectGrouping("query-ingest").
		DirectGrouping("write-ingest").
		BroadcastGrouping("tick")

	b.SetBolt("sort", func() topology.Bolt {
		return newSortBolt(c)
	}, opts.QueryPartitions).
		FieldsGrouping("match", "qkey").
		FieldsGroupingStream("query-ingest", streamBootstrap, "qkey").
		BroadcastGrouping("tick")

	for _, st := range opts.ExtraStages {
		parallelism := st.Parallelism
		if parallelism <= 0 {
			parallelism = 1
		}
		factory := st.Factory
		c.stateful[st.Name] = true
		b.SetBolt(st.Name, func() topology.Bolt {
			return factory(c)
		}, parallelism).
			FieldsGrouping("match", "qkey").
			FieldsGroupingStream("query-ingest", streamBootstrap, "qkey").
			BroadcastGrouping("tick")
	}

	top, err := b.Build(opts.QueueSize)
	if err != nil {
		return nil, err
	}
	c.top = top
	top.RegisterMetrics(reg)
	RegisterWireMetrics(reg)
	// Every metric of the matching cells is a sum over their slots; what they
	// hold is read from column 0 only, as a query lives on every column of its row.
	sum := func(held bool, get func(*cellSlot) int64) func() float64 {
		return func() float64 {
			n := int64(0)
			for i := range c.cells {
				if _, col := c.layout.cell(i); col == 0 || !held {
					n += get(&c.cells[i])
				}
			}
			return float64(n)
		}
	}
	reg.Gauge("cluster.queries", sum(true, func(s *cellSlot) int64 { return s.queries.Load() }))
	reg.Gauge("cluster.subscriptions", sum(true, func(s *cellSlot) int64 { return s.subs.Load() }))
	reg.Gauge("queryindex.writes", sum(false, func(s *cellSlot) int64 { return s.writes.Load() }))
	reg.Gauge("queryindex.candidates.probed", sum(false, func(s *cellSlot) int64 { return s.probed.Load() }))
	reg.Gauge("queryindex.candidates.evaluated", sum(false, func(s *cellSlot) int64 { return s.evaluated.Load() }))
	reg.Gauge("queryindex.candidates.matched", sum(false, func(s *cellSlot) int64 { return s.matched.Load() }))
	reg.Gauge("cluster.tenants", func() float64 {
		c.tenantMu.RLock()
		defer c.tenantMu.RUnlock()
		return float64(len(c.tenants))
	})
	return c, nil
}

// Metrics returns the cluster's registry (the Options.Metrics instance,
// or the private one created in its absence).
func (c *Cluster) Metrics() *metrics.Registry { return c.metrics }

// streamBootstrap carries subscription bootstraps (and cancellations) from
// query ingestion to the sorting stage, partitioned by query key.
const streamBootstrap = "bootstrap"

// Options returns the cluster's effective configuration.
func (c *Cluster) Options() Options { return c.opts }

// Topics returns the cluster's event-layer topic scheme.
func (c *Cluster) Topics() Topics { return c.topics }

// Start launches the topology and the heartbeat publisher, and for a named
// process the coordination client (controlLoop).
func (c *Cluster) Start() error {
	c.mu.Lock()
	if c.started {
		c.mu.Unlock()
		return fmt.Errorf("core: cluster already started")
	}
	c.started = true
	// start runs outside c.mu: it calls into the bus and, when the topology
	// fails to start, waits for the tasks already launched. Holding hbWG
	// meanwhile makes a concurrent Stop wait for it as for the loops it starts.
	c.hbWG.Add(1)
	c.mu.Unlock()
	defer c.hbWG.Done()
	err := c.start()
	if err != nil {
		c.mu.Lock()
		c.started = false
		c.mu.Unlock()
	}
	return err
}

func (c *Cluster) start() error {
	// A named process subscribes to the retained control topic before the
	// topology starts, so the coordinator's current map arrives at once even
	// if it was published before this process came up.
	var ctl eventlayer.Subscription
	if c.opts.NodeID != "" {
		var err error
		if ctl, err = c.bus.Subscribe(c.topics.Control()); err != nil {
			return err
		}
	}
	if err := c.top.Start(); err != nil {
		if ctl != nil {
			_ = ctl.Close()
		}
		return err
	}
	c.hbWG.Add(1)
	go c.heartbeatLoop()
	if ctl != nil {
		c.hbWG.Add(1)
		go c.controlLoop(ctl)
	}
	return nil
}

// Stop halts the cluster. The event layer is left untouched: requests
// published afterwards simply go unanswered, which is the paper's isolated
// failure domain (worst case: the cluster is down, the OLTP system is not).
func (c *Cluster) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	c.mu.Unlock()
	close(c.stopHB)
	c.hbWG.Wait()
	c.top.Stop()
}

// Stats exposes the underlying topology counters.
func (c *Cluster) Stats() []topology.TaskStats { return c.top.Stats() }

// registerTenant records a tenant for heartbeat fan-out.
func (c *Cluster) registerTenant(tenant string) {
	c.tenantMu.RLock()
	_, known := c.tenants[tenant]
	c.tenantMu.RUnlock()
	if known {
		return
	}
	c.tenantMu.Lock()
	c.tenants[tenant] = struct{}{}
	c.tenantMu.Unlock()
}

func (c *Cluster) heartbeatLoop() {
	defer c.hbWG.Done()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stopHB:
			return
		case now := <-ticker.C:
			// Restarts is read fresh at every tick and nothing is recorded as
			// pending: the next heartbeat is the retry of a lost one.
			var restarts uint64
			for _, st := range c.top.Stats() {
				if c.stateful[st.Component] {
					restarts += st.Restarts
				}
			}
			c.tenantMu.RLock()
			tenants := make([]string, 0, len(c.tenants))
			for t := range c.tenants {
				tenants = append(tenants, t)
			}
			c.tenantMu.RUnlock()
			for _, tenant := range tenants {
				env := &Envelope{Kind: KindHeartbeat, Heartbeat: &Heartbeat{
					Tenant:     tenant,
					TimeMillis: now.UnixMilli(),
					Node:       c.opts.NodeID,
					Boot:       c.boot,
					Restarts:   restarts,
				}}
				if data, err := env.Encode(); err == nil {
					_ = c.bus.Publish(c.topics.Notify(tenant), data)
				}
			}
		}
	}
}

// controlLoop is a named process's coordination client. It announces the
// node on the coordination topic at once and on every HeartbeatInterval
// tick, and consumes the coordinator's retained control topic: every
// partition-map publication with a higher epoch is installed (demoting the
// previous map) and acknowledged so the coordinator can track convergence.
// Re-publications of the current epoch are ignored — the coordinator
// re-publishes periodically so late joiners converge. A map that places
// none of this node's rows is answered with an immediate hello: the node's
// first announcement may have gone out before the coordinator listened, and
// the coordinator must know the node before the next resize, not a tick
// later.
func (c *Cluster) controlLoop(sub eventlayer.Subscription) {
	defer c.hbWG.Done()
	defer sub.Close()
	ticker := time.NewTicker(c.opts.HeartbeatInterval)
	defer ticker.Stop()
	c.publishHello()
	for {
		select {
		case <-c.stopHB:
			return
		case <-ticker.C:
			c.publishHello()
		case msg, ok := <-sub.C():
			if !ok {
				return
			}
			env, err := DecodeWire(msg.Payload)
			if err != nil || env.Kind != KindPartitionMap || env.Map == nil {
				continue
			}
			if !c.maps.install(env.Map.Clone(), c.opts.NodeID) {
				continue
			}
			c.publishEpochAck(env.Map.Epoch)
			if len(c.maps.current().owned) == 0 {
				c.publishHello()
			}
		}
	}
}

// publishHello announces this process on the coordination topic: its
// identity, its grid (rows to place global rows on, column capacity), and
// the map epoch it currently routes by (so a restarted coordinator can
// recover the authoritative map from the fleet).
func (c *Cluster) publishHello() {
	hello := &NodeHello{
		Node:               c.opts.NodeID,
		Slots:              c.opts.QueryPartitions,
		MaxWritePartitions: c.opts.WritePartitions,
	}
	if cur := c.maps.current(); cur != nil {
		hello.Map = cur.m.Clone()
	}
	env := &Envelope{Kind: KindNodeHello, Hello: hello}
	if data, err := env.Encode(); err == nil {
		_ = c.bus.Publish(c.topics.Coord(), data)
	}
}

func (c *Cluster) publishEpochAck(epoch uint64) {
	env := &Envelope{Kind: KindEpochAck, EpochAck: &EpochAck{Node: c.opts.NodeID, Epoch: epoch}}
	if data, err := env.Encode(); err == nil {
		_ = c.bus.Publish(c.topics.Coord(), data)
	}
}

// CurrentMap returns a copy of the partition map the cluster currently
// routes by, or nil when none is installed yet (a named process before
// its first control-topic delivery).
func (c *Cluster) CurrentMap() *PartitionMap {
	cur := c.maps.current()
	if cur == nil {
		return nil
	}
	return cur.m.Clone()
}

// reportsQueryErrors reports whether this process should publish
// compile-error notifications for malformed subscriptions. Every process
// sees all control traffic, so exactly one — the owner of global row 0 —
// speaks for the cluster to avoid duplicate error notifications. An unnamed
// process's identity map always owns row 0.
func (c *Cluster) reportsQueryErrors() bool {
	cur := c.maps.current()
	return cur != nil && cur.ownedSlot(0) >= 0
}

// publishNotification serializes and publishes a notification on the
// tenant's topic.
func (c *Cluster) publishNotification(n *Notification) {
	env := &Envelope{Kind: KindNotification, Notification: n}
	data, err := env.Encode()
	if err != nil {
		return
	}
	c.mNotifs.Inc()
	_ = c.bus.Publish(c.topics.Notify(n.Tenant), data)
}

// cellSlot is one matching cell's slot of Cluster.cells, padded to a cache
// line so that cells counting side by side do not contend.
type cellSlot struct {
	queries, subs, writes, probed, evaluated, matched atomic.Int64
	_                                                 [16]byte
}

// Cell is one matching cell at its local grid coordinates: the queries it
// held at its last tick, then the writes it matched, the queries it probed
// for them (the index's candidates, or all of the write's collection), the
// filters it evaluated (replays included) and those that matched. Cost is
// its work in the match-ops NodeCapacity budgets: Writes + Probed, what
// matchBolt.charge takes.
type Cell struct {
	Row, Col                                          int
	Queries, Writes, Probed, Evaluated, Matched, Cost int64
}

// Cells snapshots every matching cell's counts.
func (c *Cluster) Cells() []Cell {
	out := make([]Cell, len(c.cells))
	for i := range c.cells {
		s := &c.cells[i]
		w, p := s.writes.Load(), s.probed.Load() // a write is counted after its work
		row, col := c.layout.cell(i)
		out[i] = Cell{Row: row, Col: col, Queries: s.queries.Load(), Writes: w, Probed: p,
			Evaluated: s.evaluated.Load(), Matched: s.matched.Load(), Cost: w + p}
	}
	return out
}
