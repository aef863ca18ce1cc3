package chaostest

import (
	"fmt"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/coordinator"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// gridEnv is a complete multi-process deployment folded into one test
// process: several named clusters (one per simulated server process), a
// coordinator, and an application server, all sharing one MemBus the way
// real processes share a broker.
type gridEnv struct {
	db       *storage.DB
	bus      *eventlayer.MemBus
	coord    *coordinator.Coordinator
	clusters map[string]*core.Cluster
	server   *appserver.Server
	topics   core.Topics
}

// newGridEnv boots nodes (name -> grid rows), each cols columns wide, a
// coordinator for an initial qp x wp grid, and an application server, and
// waits until the first partition map converged on every node.
func newGridEnv(t *testing.T, nodes map[string]int, cols, qp, wp int, serverOpts appserver.Options) *gridEnv {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	e := &gridEnv{
		bus:      bus,
		clusters: map[string]*core.Cluster{},
		topics:   core.NewTopics(""),
	}
	for name, rows := range nodes {
		cl, err := core.NewCluster(bus, core.Options{
			NodeID:            name,
			QueryPartitions:   rows,
			WritePartitions:   cols,
			TickInterval:      20 * time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
			RetentionTime:     5 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		e.clusters[name] = cl
	}
	coord, err := coordinator.New(bus, coordinator.Options{
		QueryPartitions:   qp,
		WritePartitions:   wp,
		RepublishInterval: 20 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Start(); err != nil {
		t.Fatal(err)
	}
	e.coord = coord
	if !coord.WaitConverged(10 * time.Second) {
		t.Fatalf("grid never converged on the initial map; nodes seen: %v", coord.Nodes())
	}
	if serverOpts.HeartbeatTimeout == 0 {
		serverOpts.HeartbeatTimeout = time.Second
	}
	e.db = storage.Open(storage.Options{})
	srv, err := appserver.New(e.db, bus, serverOpts)
	if err != nil {
		t.Fatal(err)
	}
	e.server = srv
	t.Cleanup(func() {
		_ = srv.Close()
		coord.Stop()
		for _, cl := range e.clusters {
			cl.Stop()
		}
		_ = bus.Close()
	})
	return e
}

// waitGridConverged polls until the subscription's maintained result matches
// the database's pull-based answer — the quiesced ground truth the resize
// continuity guarantee is defined against.
func waitGridConverged(t *testing.T, e *gridEnv, sub *appserver.Subscription, spec query.Spec, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var got, want []document.Document
	for time.Now().Before(deadline) {
		var err error
		want, err = e.server.Query(spec)
		if err != nil {
			t.Fatal(err)
		}
		got = sub.Result()
		if sameDocs(got, want) {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("subscription never converged after resize:\n got: %d docs %v\nwant: %d docs %v", len(got), got, len(want), want)
}

func gridSubscribe(t *testing.T, e *gridEnv, spec query.Spec) (*appserver.Subscription, *recorder) {
	t.Helper()
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(sub)
	rec.waitFor(t, "initial result", 10*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventInitial
	})
	return sub, rec
}

// auditExactlyOnce fails the test when any inserted key was delivered more
// than one add event (duplicate) or produced an error event. Keys are
// inserted exactly once in these scenarios, so "one add per key" is the
// exactly-once notification ledger.
func auditExactlyOnce(t *testing.T, rec *recorder, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	adds := func() map[string]int {
		out := map[string]int{}
		for _, ev := range rec.snapshot() {
			if ev.Type == appserver.EventAdd {
				out[ev.Key]++
			}
		}
		return out
	}
	for len(adds()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond) // let straggling duplicates land before auditing
	got := adds()
	if len(got) != n {
		t.Errorf("adds delivered for %d keys, want %d (dropped notifications)", len(got), n)
	}
	for key, count := range got {
		if count > 1 {
			t.Errorf("key %s delivered %d add events, want 1 (duplicated notification)", key, count)
		}
	}
	if errs := rec.countType(appserver.EventError); errs != 0 {
		t.Errorf("saw %d error events, want 0", errs)
	}
}

// TestGridResizeQueryPartitionContinuity is the tentpole scenario: a 2x2
// grid split across two processes grows to 3x2 while writes keep flowing.
// Rows re-hash, affected subscriptions migrate through the backfill engine,
// and the ledger must show every key added exactly once — no notification
// dropped, none duplicated — with the final result matching the quiesced
// pull query.
func TestGridResizeQueryPartitionContinuity(t *testing.T) {
	e := newGridEnv(t, map[string]int{"a": 2, "b": 2}, 2, 2, 2, appserver.Options{
		Backfill:             true,
		BackfillChunkSize:    16,
		BackfillChunkTimeout: time.Second,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	// Several subscriptions so the re-hash moves at least one row with high
	// probability regardless of which hash each query lands on.
	specs := []query.Spec{
		spec,
		{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": -1}}},
		{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": -2}}},
	}
	subs := make([]*appserver.Subscription, len(specs))
	recs := make([]*recorder, len(specs))
	for i, sp := range specs {
		subs[i], recs[i] = gridSubscribe(t, e, sp)
	}

	const n = 120
	resizeAt := n / 3
	for i := 0; i < n; i++ {
		if i == resizeAt {
			if err := e.coord.AddQueryPartition(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if !e.coord.WaitConverged(10 * time.Second) {
		t.Fatal("grid never converged on the resized map")
	}
	m := e.coord.CurrentMap()
	if m.Epoch != 2 || m.QueryPartitions != 3 {
		t.Fatalf("map = epoch %d %dx%d, want epoch 2 3x2", m.Epoch, m.QueryPartitions, m.WritePartitions)
	}
	for i, sp := range specs {
		waitGridConverged(t, e, subs[i], sp, 20*time.Second)
		auditExactlyOnce(t, recs[i], n)
	}
	// The resized grid is live end-to-end: a post-resize write notifies.
	if err := e.server.Insert("c", document.Document{"_id": "post", "v": 9999}); err != nil {
		t.Fatal(err)
	}
	for i := range specs {
		recs[i].waitFor(t, "post-resize add", 10*time.Second, func(ev appserver.Event) bool {
			return ev.Type == appserver.EventAdd && ev.Key == "post"
		})
	}
}

// TestGridResizeWritePartitionContinuity grows the column axis 2->3 under
// writes: no rows move, but keys re-hash across columns, so the row's cells
// re-install through migration backfills; the exactly-once ledger and the
// quiesced pull query must both hold afterwards.
func TestGridResizeWritePartitionContinuity(t *testing.T) {
	e := newGridEnv(t, map[string]int{"a": 2, "b": 2}, 3, 2, 2, appserver.Options{
		Backfill:             true,
		BackfillChunkSize:    16,
		BackfillChunkTimeout: time.Second,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := gridSubscribe(t, e, spec)

	const n = 120
	for i := 0; i < n; i++ {
		if i == n/3 {
			if err := e.coord.AddWritePartition(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if !e.coord.WaitConverged(10 * time.Second) {
		t.Fatal("grid never converged on the resized map")
	}
	if m := e.coord.CurrentMap(); m.WritePartitions != 3 {
		t.Fatalf("map has %d write partitions, want 3", m.WritePartitions)
	}
	waitGridConverged(t, e, sub, spec, 20*time.Second)
	auditExactlyOnce(t, rec, n)
}

// TestGridResizeWithoutHeadroomRefused: widening the grid beyond the fleet's
// announced column capacity must be refused atomically — no partial epoch.
func TestGridResizeWithoutHeadroomRefused(t *testing.T) {
	e := newGridEnv(t, map[string]int{"a": 1, "b": 1}, 2, 2, 2, appserver.Options{})
	if err := e.coord.AddWritePartition(); err == nil {
		t.Fatal("AddWritePartition succeeded beyond the nodes' WritePartitions headroom")
	}
	if m := e.coord.CurrentMap(); m.Epoch != 1 || m.WritePartitions != 2 {
		t.Fatalf("refused resize still moved the map: epoch %d wp %d", m.Epoch, m.WritePartitions)
	}
}

// TestGridCoordinatorKilledMidResize kills the coordinator right after it
// published a resize epoch, before the fleet converged. Data keeps flowing
// through the outage (the coordinator is control-plane only); a successor
// coordinator recovers the authoritative epoch from the retained control
// topic and the fleet's hellos, the resize completes, and a further resize
// on the other axis works against the successor.
func TestGridCoordinatorKilledMidResize(t *testing.T) {
	e := newGridEnv(t, map[string]int{"a": 2, "b": 2}, 3, 2, 2, appserver.Options{
		Backfill:             true,
		BackfillChunkSize:    16,
		BackfillChunkTimeout: time.Second,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := gridSubscribe(t, e, spec)

	const n = 90
	for i := 0; i < n/3; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	// Publish the resize epoch and kill the coordinator immediately — the
	// fleet has not converged, the migration is mid-flight.
	if err := e.coord.AddQueryPartition(); err != nil {
		t.Fatal(err)
	}
	e.coord.Stop()

	// The data plane must not notice: writes keep notifying.
	for i := n / 3; i < 2*n/3; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}

	// A successor coordinator recovers the epoch-2 map it never published.
	coord2, err := coordinator.New(e.bus, coordinator.Options{
		QueryPartitions:   2,
		WritePartitions:   2,
		RepublishInterval: 20 * time.Millisecond,
		Logf:              t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := coord2.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord2.Stop)
	if !coord2.WaitConverged(10 * time.Second) {
		t.Fatal("successor coordinator never converged on the recovered map")
	}
	m := coord2.CurrentMap()
	if m.Epoch < 2 || m.QueryPartitions != 3 {
		t.Fatalf("successor recovered epoch %d %dx%d, want the mid-flight epoch 2 3x2", m.Epoch, m.QueryPartitions, m.WritePartitions)
	}

	for i := 2 * n / 3; i < n; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	waitGridConverged(t, e, sub, spec, 20*time.Second)
	auditExactlyOnce(t, rec, n)

	// The successor owns the grid now: a resize on the OTHER axis completes
	// against the recovered state (nodes announced 3 columns of capacity).
	if err := coord2.AddWritePartition(); err != nil {
		t.Fatal(err)
	}
	if !coord2.WaitConverged(10 * time.Second) {
		t.Fatal("grid never converged on the post-recovery wp resize")
	}
	if err := e.server.Insert("c", document.Document{"_id": "post", "v": 9999}); err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "post-recovery add", 10*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventAdd && ev.Key == "post"
	})
	waitGridConverged(t, e, sub, spec, 20*time.Second)
}

// TestGridMigrationReplaysOnlyWatermarkWindow pins the migration cost: when
// a resize moves a certified subscription from node A to node B, the new
// owner replays only the writes inside each chunk's watermark window — for a
// quiesced collection, almost nothing — never the whole retention ring. The
// cluster-wide backfill.replayed counter is the yardstick.
func TestGridMigrationReplaysOnlyWatermarkWindow(t *testing.T) {
	e := newGridEnv(t, map[string]int{"a": 2, "b": 2}, 2, 2, 2, appserver.Options{
		Backfill:             true,
		BackfillChunkSize:    32,
		BackfillChunkTimeout: time.Second,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, _ := gridSubscribe(t, e, spec)

	// Fill the retention ring: 300 writes, all inside RetentionTime.
	const n = 300
	for i := 0; i < n; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	waitGridConverged(t, e, sub, spec, 20*time.Second)

	replayed := func() int64 {
		var total int64
		for _, cl := range e.clusters {
			total += cl.Metrics().Counter("backfill.replayed").Value()
		}
		return total
	}
	migrations := func() int64 {
		return e.server.Metrics().Counter("appserver.migrations").Value()
	}
	replayedBefore, migrationsBefore := replayed(), migrations()

	// Quiesced resize: the rows re-hash and the subscription migrates.
	if err := e.coord.AddQueryPartition(); err != nil {
		t.Fatal(err)
	}
	if !e.coord.WaitConverged(10 * time.Second) {
		t.Fatal("grid never converged on the resized map")
	}
	deadline := time.Now().Add(10 * time.Second)
	for migrations() == migrationsBefore && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if migrations() == migrationsBefore {
		t.Fatal("resize triggered no subscription migration")
	}
	// Migration live end-to-end before auditing the replay cost.
	if err := e.server.Insert("c", document.Document{"_id": "post", "v": 9999}); err != nil {
		t.Fatal(err)
	}
	waitGridConverged(t, e, sub, spec, 20*time.Second)

	delta := replayed() - replayedBefore
	// The ring holds n writes and the query's row has 2 cells: a full-ring
	// replay would cost hundreds. A watermark-window replay of a quiesced
	// collection replays at most the strays racing the chunk reads.
	if delta > int64(n)/4 {
		t.Fatalf("migration replayed %d retention writes, want a watermark window (<%d), not the whole ring", delta, n/4)
	}
	t.Logf("migration replayed %d retention-ring writes (ring holds %d)", delta, n)
}

// TestGridResizeWritePartitionDefaultOptions runs a write-partition resize
// in the shipped configuration — default appserver.Options, so no migration
// backfill: the moved subscription is repaired by a fresh read handed to it
// as one EventReconnected. Inserts race the resize, then half the documents
// leave the result by update; push must equal pull after each phase.
func TestGridResizeWritePartitionDefaultOptions(t *testing.T) {
	e := newGridEnv(t, map[string]int{"a": 2, "b": 2}, 3, 2, 2, appserver.Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := gridSubscribe(t, e, spec)

	const n = 120
	for i := 0; i < n; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.coord.AddWritePartition(); err != nil {
		t.Fatal(err)
	}
	if !e.coord.WaitConverged(10 * time.Second) {
		t.Fatal("grid never converged on the resized map")
	}
	waitGridConverged(t, e, sub, spec, 20*time.Second)

	for i := 0; i < n; i += 2 {
		if err := e.server.Update("c", fmt.Sprintf("k%03d", i), map[string]any{"$set": map[string]any{"v": -1}}); err != nil {
			t.Fatal(err)
		}
	}
	waitGridConverged(t, e, sub, spec, 20*time.Second)
	if got := len(sub.Result()); got != n/2 {
		t.Fatalf("result holds %d docs after the updates, want %d", got, n/2)
	}
	if errs := rec.countType(appserver.EventError); errs != 0 {
		t.Errorf("saw %d error events, want 0", errs)
	}
}
