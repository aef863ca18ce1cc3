// Package experiments reproduces the paper's evaluation (§6 InvaliDB
// cluster performance, §7 Quaestor server performance): workload generation,
// cluster deployment, latency measurement, saturation search, and the
// renderers that print each figure and table. Absolute numbers are scaled to
// a single process — matching nodes get a configurable match-operation
// budget standing in for the testbed's per-node CPU cap — but the paper's
// shapes (linear read and write scalability, flat latency across cluster
// sizes, the application server's constant overhead and write ceiling) are
// reproduced faithfully.
package experiments

import (
	"fmt"
	"sync"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/loadgen"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// Config holds the scaled experiment parameters. The paper's testbed ran
// nodes at ~1.6M match-ops/s; the default here is 10x smaller so full sweeps
// finish in minutes on one machine.
type Config struct {
	// NodeCapacity is each matching node's budget in match-operations per
	// second. Default 150 000.
	NodeCapacity int
	// MatchingQueries is the number of queries that actually fire
	// notifications (the paper used 1 000 of the registered queries, each
	// matching exactly one written item). Default 40.
	MatchingQueries int
	// TargetNotifsPerSec bounds the notification rate so (de)serialization
	// of notifications stays constant across load levels (paper: ~17
	// matches/s over 60s = ~1000 latency samples). Scaled phases are much
	// shorter, so the default rate is higher — 50/s — to keep per-point
	// sample counts meaningful for p99 estimation. Default 50.
	TargetNotifsPerSec int
	// Warmup and Measure are the phase lengths (paper: 1-minute
	// measurements). Defaults 300ms and 2s.
	Warmup  time.Duration
	Measure time.Duration
	// Drain is the post-measurement grace period for in-flight
	// notifications. Default 400ms.
	Drain time.Duration
	// AppServerWriteCapacity models the single application server's write
	// ceiling for the Quaestor experiments (paper: ~6 000 ops/s). Scaled
	// default 6 000.
	AppServerWriteCapacity int
	// EnableQueryIndex turns on the matching nodes' multi-query interval
	// index (an optimization the InvaliDB thesis discusses); per-write cost
	// then drops from #queries to #candidates. Used by the ablation bench.
	EnableQueryIndex bool
}

// Defaults fills zero fields.
func (c Config) Defaults() Config {
	if c.NodeCapacity <= 0 {
		c.NodeCapacity = 150_000
	}
	if c.MatchingQueries <= 0 {
		c.MatchingQueries = 40
	}
	if c.TargetNotifsPerSec <= 0 {
		c.TargetNotifsPerSec = 50
	}
	if c.Warmup <= 0 {
		c.Warmup = 300 * time.Millisecond
	}
	if c.Measure <= 0 {
		c.Measure = 2 * time.Second
	}
	if c.Drain <= 0 {
		c.Drain = 400 * time.Millisecond
	}
	if c.AppServerWriteCapacity <= 0 {
		c.AppServerWriteCapacity = 6_000
	}
	return c
}

// Point is one measured operating point.
type Point struct {
	QP, WP    int
	Queries   int
	OpsPerSec int
	Summary   metrics.Summary
	// Delivered / Expected count matching notifications; a saturated system
	// loses or delays notifications beyond the drain window.
	Delivered int
	Expected  int
	Hist      *metrics.Histogram
	// Breakdown splits the end-to-end latency into pipeline stages using the
	// stage timestamps carried by each notification (ingest, grid, bus, and —
	// for Quaestor points — appserver dispatch).
	Breakdown metrics.Breakdown
	// Query-index selectivity over the run (standalone cluster points only):
	// Writes counts documents published by the client, WritesMatched counts
	// writes the matching stage processed, and the Cand* fields snapshot the
	// cluster's queryindex.* counters. CandProbed/WritesMatched is the
	// per-write candidate-set size; against Queries it is the index's
	// pruning factor.
	Writes        int64
	WritesMatched int64
	CandProbed    int64
	CandEvaluated int64
	CandMatched   int64
}

// CandidatesPerWrite returns the mean candidate-set size the matching stage
// probed per write, or 0 when no writes were processed.
func (p Point) CandidatesPerWrite() float64 {
	if p.WritesMatched == 0 {
		return 0
	}
	return float64(p.CandProbed) / float64(p.WritesMatched)
}

// DeliveryOK reports whether at least 95% of expected notifications arrived.
func (p Point) DeliveryOK() bool {
	if p.Expected == 0 {
		return false
	}
	return float64(p.Delivered) >= 0.95*float64(p.Expected)
}

// SustainedUnder reports whether the point satisfies a p99 latency SLA.
func (p Point) SustainedUnder(slaMS float64) bool {
	return p.DeliveryOK() && p.Summary.P99MS <= slaMS
}

const tenant = "bench"

// workload abstracts the two load generators cluster points run: the
// paper's range-query workload and the spatio-textual hot-region scenario.
type workload interface {
	Queries(total, matching int) []query.Spec
	Doc(hit bool, idx int) document.Document
}

// clusterOptions maps an experiment Config onto the cluster options every
// standalone point uses.
func clusterOptions(cfg Config, qp, wp int) core.Options {
	return core.Options{
		QueryPartitions:   qp,
		WritePartitions:   wp,
		NodeCapacity:      cfg.NodeCapacity,
		HeartbeatInterval: time.Second,
		TickInterval:      100 * time.Millisecond,
		RetentionTime:     5 * time.Second,
		QueueSize:         1 << 15,
		EnableQueryIndex:  cfg.EnableQueryIndex,
	}
}

// RunClusterPoint measures a standalone InvaliDB deployment (§6): the
// benchmark client speaks to the event layer directly, inserting documents
// at a fixed rate and measuring the time from before the insert until the
// change notification arrives.
func RunClusterPoint(cfg Config, qp, wp, queries, opsPerSec int) (Point, error) {
	cfg = cfg.Defaults()
	matching := cfg.MatchingQueries
	if matching > queries {
		matching = queries
	}
	w := loadgen.New(1, matching)
	return runPoint(cfg, clusterOptions(cfg, qp, wp), w, loadgen.Collection, queries, matching, opsPerSec)
}

// runPoint deploys a cluster with the given options, registers the
// workload's query population, drives its documents at the target rate, and
// measures delivery, latency, and query-index selectivity.
func runPoint(cfg Config, opts core.Options, w workload, collection string,
	queries, matching, opsPerSec int) (Point, error) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{BufferSize: 1 << 16})
	defer bus.Close()
	cluster, err := core.NewCluster(bus, opts)
	if err != nil {
		return Point{}, err
	}
	if err := cluster.Start(); err != nil {
		return Point{}, err
	}
	defer cluster.Stop()

	topics := cluster.Topics()
	notifSub, err := bus.Subscribe(topics.Notify(tenant))
	if err != nil {
		return Point{}, err
	}
	defer notifSub.Close()

	if err := registerSpecs(bus, cluster, topics, w.Queries(queries, matching)); err != nil {
		return Point{}, err
	}

	recorder := metrics.NewLatencyRecorder()
	hist := metrics.NewHistogram(2, 100)
	stages := metrics.NewRegistry()
	done := make(chan struct{})
	delivered := 0
	go func() {
		defer close(done)
		for msg := range notifSub.C() {
			env, err := core.DecodeWire(msg.Payload)
			if err != nil || env.Kind != core.KindNotification {
				continue
			}
			n := env.Notification
			if n.Type != core.MatchAdd || n.Doc == nil {
				continue
			}
			if ts, ok := n.Doc["sentNs"].(int64); ok {
				recvNs := time.Now().UnixNano()
				lat := time.Duration(recvNs - ts)
				recorder.Record(lat)
				hist.Record(lat)
				delivered++
				// No appserver hop in the standalone deployment: the bus
				// stage ends at the benchmark client itself.
				stages.RecordStages(n.WriteNs, n.IngestNs, n.MatchNs, recvNs, 0)
			}
		}
	}()

	var writes int64
	publishWrite := func(d document.Document) error {
		ai := &document.AfterImage{
			Collection: collection,
			Key:        mustID(d),
			Version:    uint64(time.Now().UnixNano()),
			Op:         document.OpInsert,
			Doc:        d,
		}
		env := &core.Envelope{Kind: core.KindWrite, Write: &core.WriteEvent{
			Tenant: tenant, Image: ai, SentNs: time.Now().UnixNano(),
		}}
		data, err := env.Encode()
		if err != nil {
			return err
		}
		writes++
		return bus.Publish(topics.Writes(), data)
	}

	// Warmup at the target rate (not measured).
	runLoad(cfg.Warmup, opsPerSec, 0, w, nil, publishWrite)
	expected := runLoad(cfg.Measure, opsPerSec, cfg.TargetNotifsPerSec, w, stamp, publishWrite)
	time.Sleep(cfg.Drain)
	_ = notifSub.Close()
	<-done

	reg := cluster.Metrics()
	return Point{
		QP: opts.QueryPartitions, WP: opts.WritePartitions,
		Queries: queries, OpsPerSec: opsPerSec,
		Summary: recorder.Snapshot(), Delivered: delivered, Expected: expected,
		Hist: hist, Breakdown: stages.Breakdown(),
		Writes:        writes,
		WritesMatched: reg.Counter("queryindex.writes").Value(),
		CandProbed:    reg.Counter("queryindex.candidates.probed").Value(),
		CandEvaluated: reg.Counter("queryindex.candidates.evaluated").Value(),
		CandMatched:   reg.Counter("queryindex.candidates.matched").Value(),
	}, nil
}

func mustID(d document.Document) string {
	id, _ := d.ID()
	return id
}

// stamp embeds the operation's scheduled send time into a hit document so
// the receiver can compute end-to-end latency (paper §6.1: "the time from
// before inserting an item until after receiving the corresponding
// notification"). Using the scheduled time keeps the measurement open-loop:
// when the system under test cannot absorb the offered rate, client-side
// queueing delay counts against it instead of silently lowering the rate.
func stamp(d document.Document, due time.Time) {
	d["sentNs"] = due.UnixNano()
}

// runLoad publishes documents at the given rate for the duration. Hits —
// documents matching exactly one registered query — are spaced so roughly
// notifTarget of them fire per second (0 disables hits). It returns the
// number of hits written.
func runLoad(duration time.Duration, opsPerSec, notifTarget int, w workload,
	beforeHit func(document.Document, time.Time), publish func(document.Document) error) int {
	if opsPerSec <= 0 || duration <= 0 {
		return 0
	}
	hitEvery := 0
	if notifTarget > 0 {
		hitEvery = opsPerSec / notifTarget
		if hitEvery < 1 {
			hitEvery = 1
		}
	}
	start := time.Now()
	end := start.Add(duration)
	sent := 0
	hits := 0
	hitIdx := 0
	for {
		now := time.Now()
		if !now.Before(end) {
			return hits
		}
		// How many documents should have been sent by now?
		due := int(float64(now.Sub(start)) / float64(time.Second) * float64(opsPerSec))
		for sent < due {
			hit := hitEvery > 0 && sent%hitEvery == 0
			d := w.Doc(hit, hitIdx)
			if hit {
				hitIdx++
				hits++
				if beforeHit != nil {
					// The op was scheduled at start + sent/rate.
					opDue := start.Add(time.Duration(float64(sent) / float64(opsPerSec) * float64(time.Second)))
					beforeHit(d, opDue)
				}
			}
			if err := publish(d); err != nil {
				return hits
			}
			sent++
		}
		time.Sleep(200 * time.Microsecond)
	}
}

// registerSpecs publishes the subscription population and waits until the
// cluster has ingested every request (the paper's preparation phase). The
// publish loop is flow-controlled against the ingestion stage's progress so
// a six-figure population never overruns the in-memory bus buffers.
func registerSpecs(bus eventlayer.Bus, cluster *core.Cluster, topics core.Topics,
	specs []query.Spec) error {
	total := len(specs)
	ingested := func() uint64 {
		var n uint64
		for _, s := range cluster.Stats() {
			if s.Component == "query-ingest" {
				n += s.Executed
			}
		}
		return n
	}
	// The window must stay well under the bus buffer (1<<16) and the task
	// queue (1<<15) so no subscribe request is ever dropped.
	const window = 8192
	deadline := time.Now().Add(5 * time.Minute)
	for i, spec := range specs {
		env := &core.Envelope{Kind: core.KindSubscribe, Subscribe: &core.SubscribeRequest{
			Tenant:         tenant,
			SubscriptionID: fmt.Sprintf("bench-%06d", i),
			Query:          spec,
			TTLMillis:      (10 * time.Minute).Milliseconds(),
		}}
		data, err := env.Encode()
		if err != nil {
			return err
		}
		for uint64(i)-ingested() >= window {
			if !time.Now().Before(deadline) {
				return fmt.Errorf("experiments: query ingestion stalled at %d/%d", ingested(), total)
			}
			time.Sleep(time.Millisecond)
		}
		if err := bus.Publish(topics.Queries(), data); err != nil {
			return err
		}
	}
	// Preparation barrier: the query ingestion stage has executed one tuple
	// per subscription once all requests are installed.
	for time.Now().Before(deadline) {
		if ingested() >= uint64(total) {
			return nil
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("experiments: query ingestion did not finish (%d queries)", total)
}

// RunQuaestorPoint measures the same workload through a Quaestor application
// server (§7): the benchmark client calls the server's write API (database
// write + after-image forwarding) and receives events through the server's
// subscription fan-out — one extra hop on both paths.
func RunQuaestorPoint(cfg Config, qp, wp, queries, opsPerSec int) (Point, error) {
	cfg = cfg.Defaults()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{BufferSize: 1 << 16})
	defer bus.Close()
	cluster, err := core.NewCluster(bus, core.Options{
		QueryPartitions: qp,
		WritePartitions: wp,
		NodeCapacity:    cfg.NodeCapacity,
		TickInterval:    100 * time.Millisecond,
		QueueSize:       1 << 15,
	})
	if err != nil {
		return Point{}, err
	}
	if err := cluster.Start(); err != nil {
		return Point{}, err
	}
	defer cluster.Stop()

	db := storage.Open(storage.Options{Shards: 16, OplogCapacity: 1024})
	srv, err := appserver.New(db, bus, appserver.Options{
		Tenant:        tenant,
		WriteCapacity: cfg.AppServerWriteCapacity,
		TTL:           10 * time.Minute,
		// Modest per-subscription buffers: thousands of subscriptions each
		// pre-allocate their channel, so a large buffer here turns into
		// GC-visible bulk memory.
		EventBuffer: 256,
	})
	if err != nil {
		return Point{}, err
	}
	defer srv.Close()

	matching := cfg.MatchingQueries
	if matching > queries {
		matching = queries
	}
	w := loadgen.New(1, matching)
	recorder := metrics.NewLatencyRecorder()
	hist := metrics.NewHistogram(2, 100)
	delivered := 0
	doneCh := make(chan struct{})
	subs := make([]*appserver.Subscription, 0, queries)
	events := make(chan appserver.Event, 1<<15)
	var forwarders sync.WaitGroup
	for i, spec := range w.Queries(queries, matching) {
		sub, err := srv.Subscribe(spec)
		if err != nil {
			return Point{}, fmt.Errorf("experiments: subscribe %d: %w", i, err)
		}
		subs = append(subs, sub)
		forwarders.Add(1)
		go func(c <-chan appserver.Event) {
			defer forwarders.Done()
			for ev := range c {
				select {
				case events <- ev:
				default:
				}
			}
		}(sub.C())
	}
	go func() {
		defer close(doneCh)
		for ev := range events {
			if ev.Type != appserver.EventAdd || ev.Doc == nil {
				continue
			}
			if ts, ok := ev.Doc["sentNs"].(int64); ok {
				lat := time.Duration(time.Now().UnixNano() - ts)
				recorder.Record(lat)
				hist.Record(lat)
				delivered++
			}
		}
	}()

	publish := func(d document.Document) error {
		return srv.Insert(loadgen.Collection, d)
	}
	runLoad(cfg.Warmup, opsPerSec, 0, w, nil, publish)
	expected := runLoad(cfg.Measure, opsPerSec, cfg.TargetNotifsPerSec, w, stamp, publish)
	time.Sleep(cfg.Drain)
	// Close the subscriptions first so the forwarders drain out before the
	// shared sink closes.
	for _, sub := range subs {
		_ = sub.Close()
	}
	forwarders.Wait()
	close(events)
	<-doneCh

	return Point{
		QP: qp, WP: wp, Queries: queries, OpsPerSec: opsPerSec,
		Summary: recorder.Snapshot(), Delivered: delivered, Expected: expected,
		Hist: hist, Breakdown: srv.Metrics().Breakdown(),
	}, nil
}
