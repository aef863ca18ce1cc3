// Benchmarks regenerating the paper's evaluation, one per latency table and
// figure (see EXPERIMENTS.md for the mapping and DESIGN.md for the scaling
// model). Each figure benchmark measures a representative operating point of
// the corresponding experiment and reports the paper's metrics via
// b.ReportMetric; the complete rows/series of every figure are produced by
// `go run ./cmd/invalidb-bench -exp <id>`. Figures 4 and 5 count work rather
// than time it, so they have no benchmark here: Table 3's benchmarks run
// their 80 % points.
//
// The second half are micro-benchmarks of the substrates (query matching,
// sorting, storage, event layer, topology, end-to-end notification path).
package invalidb

import (
	"fmt"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/experiments"
	"invalidb/internal/loadgen"
	"invalidb/internal/query"
	"invalidb/internal/storage"
	"invalidb/internal/topology"
)

// benchCfg is the scaled experiment configuration used by the figure
// benchmarks: small node budget and short phases so a full -bench=. run
// stays in the minutes.
func benchCfg() experiments.Config {
	return experiments.Config{
		NodeCapacity:       20_000,
		MatchingQueries:    10,
		TargetNotifsPerSec: 40,
		Warmup:             200 * time.Millisecond,
		Measure:            500 * time.Millisecond,
		Drain:              250 * time.Millisecond,
	}
}

func reportPoint(b *testing.B, p experiments.Point) {
	b.Helper()
	s := p.Summary
	b.ReportMetric(s.AvgMS, "avg-ms")
	b.ReportMetric(s.P99MS, "p99-ms")
	b.ReportMetric(s.MaxMS, "max-ms")
	delivery := 0.0
	if p.Expected > 0 {
		delivery = float64(p.Delivered) / float64(p.Expected)
	}
	b.ReportMetric(delivery*100, "delivered-%")
}

// BenchmarkTable3aReadHeavy reproduces Table 3a's rows: latency statistics
// at ~80% capacity under the read-heavy workload.
func BenchmarkTable3aReadHeavy(b *testing.B) {
	cfg := benchCfg()
	perNode := cfg.NodeCapacity / experiments.BaseWriteRate
	for _, qp := range []int{1, 2, 4} {
		queries := int(0.8 * float64(qp*perNode))
		b.Run(fmt.Sprintf("QP-%d-queries-%d", qp, queries), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunClusterPoint(cfg, qp, 1, queries, experiments.BaseWriteRate)
				if err != nil {
					b.Fatal(err)
				}
				reportPoint(b, p)
				b.ReportMetric(p.Summary.StdMS, "std-ms")
			}
		})
	}
}

// BenchmarkTable3bWriteHeavy reproduces Table 3b's rows: latency statistics
// at ~66% capacity under the write-heavy workload.
func BenchmarkTable3bWriteHeavy(b *testing.B) {
	cfg := benchCfg()
	const queries = 20
	perNodeRate := cfg.NodeCapacity / queries
	for _, wp := range []int{1, 2, 4} {
		rate := int(0.66 * float64(wp*perNodeRate))
		b.Run(fmt.Sprintf("WP-%d-rate-%d", wp, rate), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				p, err := experiments.RunClusterPoint(cfg, 1, wp, queries, rate)
				if err != nil {
					b.Fatal(err)
				}
				reportPoint(b, p)
				b.ReportMetric(p.Summary.StdMS, "std-ms")
			}
		})
	}
}

// BenchmarkFig6aQuaestorRead compares standalone InvaliDB against the
// Quaestor application server under the read-heavy workload (paper Figure
// 6a): the overhead-ms metric is the app server's added latency.
func BenchmarkFig6aQuaestorRead(b *testing.B) {
	cfg := benchCfg()
	queries := int(0.5 * float64(cfg.NodeCapacity/experiments.BaseWriteRate))
	for i := 0; i < b.N; i++ {
		inv, err := experiments.RunClusterPoint(cfg, 1, 1, queries, experiments.BaseWriteRate)
		if err != nil {
			b.Fatal(err)
		}
		qst, err := experiments.RunQuaestorPoint(cfg, 1, 1, queries, experiments.BaseWriteRate)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(inv.Summary.AvgMS, "invalidb-avg-ms")
		b.ReportMetric(qst.Summary.AvgMS, "quaestor-avg-ms")
		b.ReportMetric(qst.Summary.AvgMS-inv.Summary.AvgMS, "overhead-ms")
	}
}

// BenchmarkFig6bQuaestorWrite compares the two deployments under write load
// (paper Figure 6b): with the app-server write ceiling below the offered
// rate, Quaestor latency collapses while standalone InvaliDB sustains.
func BenchmarkFig6bQuaestorWrite(b *testing.B) {
	cfg := benchCfg()
	cfg.AppServerWriteCapacity = 500
	const queries = 10
	rate := 1200
	for i := 0; i < b.N; i++ {
		inv, err := experiments.RunClusterPoint(cfg, 1, 1, queries, rate)
		if err != nil {
			b.Fatal(err)
		}
		qst, err := experiments.RunQuaestorPoint(cfg, 1, 1, queries, rate)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(inv.Summary.P99MS, "invalidb-p99-ms")
		b.ReportMetric(qst.Summary.P99MS, "quaestor-p99-ms")
	}
}

// BenchmarkFig6cLatencyDistributionRead captures the read-heavy latency
// distribution snapshot (paper Figure 6c); the reported overflow fraction is
// the tail beyond the histogram range.
func BenchmarkFig6cLatencyDistributionRead(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		pair, err := experiments.Fig6c(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pair.InvaliDB.Summary.P99MS, "invalidb-p99-ms")
		b.ReportMetric(pair.Quaestor.Summary.P99MS, "quaestor-p99-ms")
		_, overflow := pair.Quaestor.Hist.Buckets()
		b.ReportMetric(overflow*100, "tail-beyond-100ms-%")
	}
}

// BenchmarkFig6dLatencyDistributionWrite captures the write-heavy snapshot
// (paper Figure 6d).
func BenchmarkFig6dLatencyDistributionWrite(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		pair, err := experiments.Fig6d(cfg, 1)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(pair.InvaliDB.Summary.P99MS, "invalidb-p99-ms")
		b.ReportMetric(pair.Quaestor.Summary.P99MS, "quaestor-p99-ms")
	}
}

// BenchmarkBaselineComparison runs the §3.1 mechanism comparison (the
// executable counterpart of Table 2's scaling rows): InvaliDB with write
// partitioning vs the log-tailing single node vs poll-and-diff.
func BenchmarkBaselineComparison(b *testing.B) {
	cfg := benchCfg()
	for i := 0; i < b.N; i++ {
		results, err := experiments.Baselines(cfg, nil)
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range results {
			switch r.Mechanism {
			case "InvaliDB (4 write partitions)":
				b.ReportMetric(r.Point.Summary.P99MS, "invalidb-p99-ms")
			case "Log tailing (single node)":
				b.ReportMetric(r.Point.Summary.P99MS, "logtailing-p99-ms")
			case "Poll-and-diff":
				b.ReportMetric(r.Point.Summary.AvgMS, "polldiff-staleness-ms")
			}
		}
	}
}

// --- Substrate micro-benchmarks ---------------------------------------------

// BenchmarkMatchRangeQuery is the filtering stage's hot operation: one
// after-image evaluated against one range query (the paper's workload
// predicate).
func BenchmarkMatchRangeQuery(b *testing.B) {
	w := loadgen.New(1, 8)
	q := query.MustCompile(w.MatchingQuery(0))
	doc := w.Doc(true, 0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.Match(doc) {
			b.Fatal("miss")
		}
	}
}

// BenchmarkMatchComplexFilter exercises nested logical operators, regex and
// array conditions.
func BenchmarkMatchComplexFilter(b *testing.B) {
	q := query.MustCompile(query.Spec{
		Collection: "c",
		Filter: map[string]any{
			"$or": []any{
				map[string]any{"tags": map[string]any{"$all": []any{"go", "db"}}},
				map[string]any{"$and": []any{
					map[string]any{"name": map[string]any{"$regex": "^inva"}},
					map[string]any{"n": map[string]any{"$mod": []any{7, 3}}},
				}},
			},
		},
	})
	doc := document.Document{"name": "invalidb", "n": int64(10), "tags": []any{"streaming"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !q.Match(doc) {
			b.Fatal("miss")
		}
	}
}

// BenchmarkSortComparator measures the engine comparator used by the
// sorting stage and the pull-based engine.
func BenchmarkSortComparator(b *testing.B) {
	q := query.MustCompile(query.Spec{
		Collection: "c",
		Sort:       []query.SortKey{{Path: "year", Desc: true}, {Path: "title"}},
	})
	x := document.Document{"_id": "a", "year": int64(2018), "title": "DB Fun"}
	y := document.Document{"_id": "b", "year": int64(2018), "title": "No SQL!"}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if q.Compare(x, y) >= 0 {
			b.Fatal("order broken")
		}
	}
}

// BenchmarkAfterImageCodec measures the (de)serialization overhead the
// paper identifies as the write-path cost that makes write-heavy workloads
// slightly less efficient than read-heavy ones (§6.3).
func BenchmarkAfterImageCodec(b *testing.B) {
	w := loadgen.New(1, 1)
	ai := &document.AfterImage{
		Collection: loadgen.Collection, Key: "k", Version: 7,
		Op: document.OpInsert, Doc: w.Doc(false, 0),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		data, err := ai.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if _, err := document.DecodeAfterImage(data); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageFindAndModify measures the database write path that
// produces after-images.
func BenchmarkStorageFindAndModify(b *testing.B) {
	db := storage.Open(storage.Options{})
	c := db.C("c")
	if _, err := c.Insert(document.Document{"_id": "k", "n": 0}); err != nil {
		b.Fatal(err)
	}
	update := map[string]any{"$inc": map[string]any{"n": 1}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.FindAndModify("k", update, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStorageIndexedFind measures an equality-indexed query.
func BenchmarkStorageIndexedFind(b *testing.B) {
	db := storage.Open(storage.Options{})
	c := db.C("c")
	_ = c.EnsureIndex("cat")
	for i := 0; i < 10000; i++ {
		_, _ = c.Insert(document.Document{"_id": fmt.Sprint(i), "cat": i % 100, "n": i})
	}
	q := query.MustCompile(query.Spec{Collection: "c", Filter: map[string]any{"cat": 42}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := c.Find(q)
		if err != nil || len(docs) != 100 {
			b.Fatalf("find: %d docs, %v", len(docs), err)
		}
	}
}

// BenchmarkStorageBootstrapPinned measures subscribe-churn's admission read,
// a group query over 20 000 documents, as a subscriber issues it: no
// EnsureIndex, so the collection builds the index on the pinned path itself
// at the first Find. Read it beside BenchmarkStorageIndexedFind.
func BenchmarkStorageBootstrapPinned(b *testing.B) {
	db := storage.Open(storage.Options{})
	c := db.C("c")
	for i := 0; i < 20000; i++ {
		_, _ = c.Insert(document.Document{"_id": fmt.Sprint(i), "g": float64(i % 20), "n": i})
	}
	q := query.MustCompile(query.Spec{Collection: "c", Filter: map[string]any{"g": float64(3)}})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		docs, err := c.Find(q)
		if err != nil || len(docs) != 1000 {
			b.Fatalf("find: %d docs, %v", len(docs), err)
		}
	}
}

// BenchmarkMemBusPublish measures the in-process event layer.
func BenchmarkMemBusPublish(b *testing.B) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{BufferSize: 1 << 16})
	defer bus.Close()
	sub, _ := bus.Subscribe("t")
	go func() {
		for range sub.C() {
		}
	}()
	payload := []byte("0123456789abcdef0123456789abcdef")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := bus.Publish("t", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTopologyFieldsGrouping measures the stream processor's routing
// throughput under fields grouping (the cluster's partitioning primitive).
func BenchmarkTopologyFieldsGrouping(b *testing.B) {
	done := make(chan struct{})
	var count int
	spout := &benchSpout{n: b.N}
	builder := topology.NewBuilder()
	builder.SetSpout("src", func() topology.Spout { return spout }, 1, "key")
	builder.SetBolt("sink", func() topology.Bolt {
		return &benchBolt{target: b.N, done: done, count: &count}
	}, 1).FieldsGrouping("src", "key")
	top, err := builder.Build(1 << 14)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	if err := top.Start(); err != nil {
		b.Fatal(err)
	}
	<-done
	b.StopTimer()
	top.Stop()
}

// BenchmarkFanOutRouting measures the steady-state routing hot path —
// type-switched key hash, a tuple sent by value over the task queue — with
// pre-built value slices, so a non-zero allocs/op directly indicts the
// routing layer.
// The acceptance bar is 0 allocs/op for both key types.
func BenchmarkFanOutRouting(b *testing.B) {
	mkStringVals := func(i int) topology.Values { return topology.Values{fmt.Sprintf("key-%d", i)} }
	mkUint64Vals := func(i int) topology.Values { return topology.Values{uint64(i)} }
	for _, tc := range []struct {
		name string
		mk   func(int) topology.Values
	}{
		{"string-key", mkStringVals},
		{"uint64-key", mkUint64Vals},
	} {
		b.Run(tc.name, func(b *testing.B) {
			vals := make([]topology.Values, 1024)
			for i := range vals {
				vals[i] = tc.mk(i)
			}
			done := make(chan struct{})
			var count int
			spout := &routeBenchSpout{n: b.N, vals: vals}
			builder := topology.NewBuilder()
			builder.SetSpout("src", func() topology.Spout { return spout }, 1, "key")
			builder.SetBolt("sink", func() topology.Bolt {
				return &benchBolt{target: b.N, done: done, count: &count}
			}, 1).FieldsGrouping("src", "key")
			top, err := builder.Build(1 << 14)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			if err := top.Start(); err != nil {
				b.Fatal(err)
			}
			<-done
			b.StopTimer()
			top.Stop()
		})
	}
}

// routeBenchSpout re-emits pre-built value slices so the benchmark observes
// only the routing layer's allocations, not the test harness's.
type routeBenchSpout struct {
	n, sent int
	vals    []topology.Values
	ctx     *topology.SpoutContext
}

func (s *routeBenchSpout) Open(ctx *topology.SpoutContext) error { s.ctx = ctx; return nil }
func (s *routeBenchSpout) Next() {
	if s.sent >= s.n {
		<-s.ctx.Done
		return
	}
	s.ctx.Emit(s.vals[s.sent&1023])
	s.sent++
}
func (s *routeBenchSpout) Close() {}

type benchSpout struct {
	n, sent int
	ctx     *topology.SpoutContext
}

func (s *benchSpout) Open(ctx *topology.SpoutContext) error { s.ctx = ctx; return nil }
func (s *benchSpout) Next() {
	if s.sent >= s.n {
		<-s.ctx.Done
		return
	}
	s.ctx.Emit(topology.Values{s.sent & 1023})
	s.sent++
}
func (s *benchSpout) Close() {}

type benchBolt struct {
	target int
	count  *int
	done   chan struct{}
}

func (bb *benchBolt) Prepare(ctx *topology.BoltContext, out topology.Collector) error { return nil }
func (bb *benchBolt) Execute(t *topology.Tuple) {
	*bb.count++
	if *bb.count == bb.target {
		close(bb.done)
	}
}
func (bb *benchBolt) Cleanup() {}

// BenchmarkEndToEndNotification measures a full round trip: application
// server write -> database -> event layer -> cluster match -> notification
// -> subscription event.
func BenchmarkEndToEndNotification(b *testing.B) { benchEndToEndNotification(b, 0) }

// BenchmarkEndToEndNotificationPaced is the same round trip with 3 ms of
// silence before every write — the sparse-arrival regime real subscriptions
// see, which the back-to-back loop above hides: a spout that polls is asleep
// when the write arrives, a parked one is not. ns/op includes the pauses;
// notify-ns/op is the write → event latency alone.
func BenchmarkEndToEndNotificationPaced(b *testing.B) {
	benchEndToEndNotification(b, 3*time.Millisecond)
}

func benchEndToEndNotification(b *testing.B, gap time.Duration) {
	dep, err := Open(ClusterOptions{}, ServerOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer dep.Close()
	sub, err := dep.Server.Subscribe(Spec{Collection: "c", Filter: map[string]any{"hot": true}})
	if err != nil {
		b.Fatal(err)
	}
	<-sub.C() // initial
	var latency time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if gap > 0 {
			time.Sleep(gap)
		}
		start := time.Now()
		if err := dep.Server.Insert("c", Document{"_id": fmt.Sprint(i), "hot": true}); err != nil {
			b.Fatal(err)
		}
		ev := <-sub.C()
		if ev.Type != EventAdd {
			b.Fatalf("event %v", ev.Type)
		}
		latency += time.Since(start)
	}
	b.ReportMetric(float64(latency.Nanoseconds())/float64(b.N), "notify-ns/op")
}

// BenchmarkWriteBatchIngest measures the batched write-ingestion path at the
// cluster level: versioned updates of one record flow through the event
// layer, the batching write-ingest stage, and a 4-row matching grid, with a
// window of writes in flight so ingestion batches actually form.
func BenchmarkWriteBatchIngest(b *testing.B) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{BufferSize: 1 << 16})
	defer bus.Close()
	cluster, err := core.NewCluster(bus, core.Options{QueryPartitions: 4})
	if err != nil {
		b.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		b.Fatal(err)
	}
	defer cluster.Stop()
	topics := cluster.Topics()
	notif, err := bus.Subscribe(topics.Notify("t"))
	if err != nil {
		b.Fatal(err)
	}
	defer notif.Close()

	sub := &core.Envelope{Kind: core.KindSubscribe, Subscribe: &core.SubscribeRequest{
		Tenant: "t", SubscriptionID: "bench",
		Query:     query.Spec{Collection: "c", Filter: map[string]any{"hot": true}},
		TTLMillis: (10 * time.Minute).Milliseconds(),
	}}
	data, err := sub.Encode()
	if err != nil {
		b.Fatal(err)
	}
	if err := bus.Publish(topics.Queries(), data); err != nil {
		b.Fatal(err)
	}

	// Distinct keys per write: the parallel ingestion tasks batch
	// independently, so same-key version chains could arrive reordered and be
	// (correctly) dropped by the staleness guard — inserts of fresh keys make
	// the notification count deterministic.
	publish := func(key string) {
		env := &core.Envelope{Kind: core.KindWrite, Write: &core.WriteEvent{
			Tenant: "t",
			Image: &document.AfterImage{
				Collection: "c", Key: key, Version: 1, Op: document.OpInsert,
				Doc: document.Document{"_id": key, "hot": true},
			},
		}}
		data, err := env.Encode()
		if err != nil {
			b.Fatal(err)
		}
		if err := bus.Publish(topics.Writes(), data); err != nil {
			b.Fatal(err)
		}
	}
	recv := func() {
		deadline := time.After(10 * time.Second)
		for {
			select {
			case msg, ok := <-notif.C():
				if !ok {
					b.Fatal("notification stream closed")
				}
				env, err := core.DecodeWire(msg.Payload)
				if err != nil || env.Kind != core.KindNotification {
					continue // heartbeats
				}
				return
			case <-deadline:
				b.Fatal("timed out waiting for notification")
			}
		}
	}
	// Preparation barrier (as in the experiments driver): once the query
	// ingestion stage has executed the subscribe tuple, the query sits in
	// every matching node's input queue ahead of any write published below.
	deadline := time.Now().Add(10 * time.Second)
	for {
		var ingested uint64
		for _, s := range cluster.Stats() {
			if s.Component == "query-ingest" {
				ingested += s.Executed
			}
		}
		if ingested >= 1 {
			break
		}
		if time.Now().After(deadline) {
			b.Fatal("query ingestion did not finish")
		}
		time.Sleep(2 * time.Millisecond)
	}

	const window = 256
	b.ReportAllocs()
	b.ResetTimer()
	inFlight := 0
	for i := 0; i < b.N; i++ {
		publish(fmt.Sprintf("k%08d", i))
		if inFlight++; inFlight >= window {
			recv()
			inFlight--
		}
	}
	for ; inFlight > 0; inFlight-- {
		recv()
	}
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationSlack quantifies the §5.2 slack trade-off end to end:
// renewal frequency under head-of-window deletions with minimal vs generous
// slack. Reported metric: renewals per 100 deletions.
func BenchmarkAblationSlack(b *testing.B) {
	for _, slack := range []int{1, 16} {
		b.Run(fmt.Sprintf("slack-%d", slack), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				dep, err := Open(ClusterOptions{}, ServerOptions{
					Slack:              slack,
					MaxSlack:           slack, // pin: the ablation isolates the slack value
					RenewalMinInterval: time.Millisecond,
				})
				if err != nil {
					b.Fatal(err)
				}
				for k := 0; k < 140; k++ {
					if err := dep.Server.Insert("s", Document{"_id": fmt.Sprintf("k%03d", k), "rank": k}); err != nil {
						b.Fatal(err)
					}
				}
				sub, err := dep.Server.Subscribe(Spec{
					Collection: "s", Sort: []SortKey{{Path: "rank"}}, Limit: 3,
				})
				if err != nil {
					b.Fatal(err)
				}
				<-sub.C()
				b.StartTimer()
				for k := 0; k < 100; k++ {
					if err := dep.Server.Delete("s", fmt.Sprintf("k%03d", k)); err != nil {
						b.Fatal(err)
					}
					time.Sleep(2 * time.Millisecond)
				}
				b.StopTimer()
				b.ReportMetric(float64(dep.Server.Renewals()), "renewals/100-deletes")
				dep.Close()
				b.StartTimer()
			}
		})
	}
}
