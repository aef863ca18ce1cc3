package chaostest

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// chaosEnv is a complete single-process deployment with a FaultBus wedged
// between every component and the real event layer.
type chaosEnv struct {
	db      *storage.DB
	mem     *eventlayer.MemBus
	fbus    *eventlayer.FaultBus
	cluster *core.Cluster
	server  *appserver.Server
	topics  core.Topics
}

func newChaosEnv(t *testing.T, faults eventlayer.FaultConfig, clusterOpts core.Options, serverOpts appserver.Options) *chaosEnv {
	t.Helper()
	if clusterOpts.TickInterval == 0 {
		clusterOpts.TickInterval = 20 * time.Millisecond
	}
	if clusterOpts.HeartbeatInterval == 0 {
		clusterOpts.HeartbeatInterval = 20 * time.Millisecond
	}
	if clusterOpts.RetentionTime == 0 {
		clusterOpts.RetentionTime = 5 * time.Second
	}
	if clusterOpts.QueryPartitions == 0 {
		clusterOpts.QueryPartitions = 2
	}
	if clusterOpts.WritePartitions == 0 {
		clusterOpts.WritePartitions = 2
	}
	if serverOpts.HeartbeatTimeout == 0 {
		serverOpts.HeartbeatTimeout = time.Second
	}
	mem := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	fbus := eventlayer.NewFaultBus(mem, faults)
	cluster, err := core.NewCluster(fbus, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	db := storage.Open(storage.Options{})
	srv, err := appserver.New(db, fbus, serverOpts)
	if err != nil {
		t.Fatal(err)
	}
	e := &chaosEnv{db: db, mem: mem, fbus: fbus, cluster: cluster, server: srv, topics: core.NewTopics("")}
	t.Cleanup(func() {
		_ = srv.Close()
		cluster.Stop()
		_ = fbus.Close()
	})
	return e
}

// recorder drains a subscription's event stream into a growing log so tests
// can both wait for specific events and audit the full history afterwards
// (e.g. "no key was added twice").
type recorder struct {
	mu     sync.Mutex
	events []appserver.Event
}

func record(sub *appserver.Subscription) *recorder {
	r := &recorder{}
	go func() {
		for ev := range sub.C() {
			r.mu.Lock()
			r.events = append(r.events, ev)
			r.mu.Unlock()
		}
	}()
	return r
}

func (r *recorder) snapshot() []appserver.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]appserver.Event(nil), r.events...)
}

func (r *recorder) waitFor(t *testing.T, what string, timeout time.Duration, match func(appserver.Event) bool) appserver.Event {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		for _, ev := range r.snapshot() {
			if match(ev) {
				return ev
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; events seen: %v", what, typesOf(r.snapshot()))
	return appserver.Event{}
}

func (r *recorder) countType(typ appserver.EventType) int {
	n := 0
	for _, ev := range r.snapshot() {
		if ev.Type == typ {
			n++
		}
	}
	return n
}

func typesOf(events []appserver.Event) []string {
	out := make([]string, len(events))
	for i, ev := range events {
		out[i] = ev.Type.String()
		if ev.Key != "" {
			out[i] += ":" + ev.Key
		}
	}
	return out
}

// waitConverged polls until the subscription's maintained result matches the
// database's pull-based answer for the same query.
func waitConverged(t *testing.T, e *chaosEnv, sub *appserver.Subscription, spec query.Spec, timeout time.Duration) {
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
	t.Fatalf("subscription never converged under faults:\n got: %v\nwant: %v", got, want)
}

func sameDocs(a, b []document.Document) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(d document.Document) string { id, _ := d.ID(); return id }
	as := append([]document.Document(nil), a...)
	bs := append([]document.Document(nil), b...)
	sort.Slice(as, func(i, j int) bool { return key(as[i]) < key(as[j]) })
	sort.Slice(bs, func(i, j int) bool { return key(bs[i]) < key(bs[j]) })
	for i := range as {
		if !document.Equal(map[string]any(as[i]), map[string]any(bs[i])) {
			return false
		}
	}
	return true
}

func mustSubscribe(t *testing.T, e *chaosEnv, spec query.Spec) (*appserver.Subscription, *recorder) {
	t.Helper()
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	rec := record(sub)
	rec.waitFor(t, "initial result", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventInitial
	})
	return sub, rec
}

// TestChaosDroppedWritesRepairedByResubscription: the event layer silently
// drops a third of all write messages. The cluster can never see those
// writes, so the repair is end-to-end: heal the bus and force a
// re-subscription, which re-bootstraps from the database.
func TestChaosDroppedWritesRepairedByResubscription(t *testing.T) {
	topics := core.NewTopics("")
	e := newChaosEnv(t,
		eventlayer.FaultConfig{Seed: 7, DropRate: 0.3, Topics: []string{topics.Writes()}},
		core.Options{}, appserver.Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := mustSubscribe(t, e, spec)

	for i := 0; i < 40; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%02d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if dropped := e.fbus.Stats().Dropped; dropped == 0 {
		t.Fatal("fault injection dropped nothing; the scenario is vacuous")
	}
	// Heal the bus, then repair via re-subscription.
	e.fbus.SetConfig(eventlayer.FaultConfig{})
	e.server.Resubscribe()
	rec.waitFor(t, "reconnected after resubscribe", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventReconnected
	})
	waitConverged(t, e, sub, spec, 10*time.Second)
	if len(sub.Result()) != 40 {
		t.Fatalf("result has %d docs, want 40", len(sub.Result()))
	}
}

// TestChaosDuplicatesAreDeduplicated: half of all messages (writes,
// notifications, control traffic) are delivered twice. The cluster drops
// duplicate writes by version; the client drops duplicate notifications by
// origin and sequence number — so every inserted key produces exactly one
// add event.
func TestChaosDuplicatesAreDeduplicated(t *testing.T) {
	e := newChaosEnv(t,
		eventlayer.FaultConfig{Seed: 11, DuplicateRate: 0.5},
		core.Options{}, appserver.Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := mustSubscribe(t, e, spec)

	const n = 30
	for i := 0; i < n; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%02d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if dup := e.fbus.Stats().Duplicated; dup == 0 {
		t.Fatal("fault injection duplicated nothing; the scenario is vacuous")
	}
	waitConverged(t, e, sub, spec, 10*time.Second)

	// Exactly-once delivery: every key reported added exactly once. The
	// recorder drains the event channel asynchronously, so poll until the
	// log covers all keys, then let straggling duplicates (if any) land
	// before auditing the counts.
	countAdds := func() map[string]int {
		adds := map[string]int{}
		for _, ev := range rec.snapshot() {
			if ev.Type == appserver.EventAdd {
				adds[ev.Key]++
			}
		}
		return adds
	}
	deadline := time.Now().Add(5 * time.Second)
	for len(countAdds()) < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(100 * time.Millisecond)
	adds := countAdds()
	if len(adds) != n {
		t.Errorf("saw adds for %d keys, want %d", len(adds), n)
	}
	for key, count := range adds {
		if count > 1 {
			t.Errorf("key %s delivered %d add events, want 1", key, count)
		}
	}
	if sub.Dropped() != 0 {
		t.Errorf("client dropped %d events", sub.Dropped())
	}
}

// TestChaosDelaysConverge: half of all messages are delivered late. Nothing
// is lost, so the subscription must converge with no manual intervention
// and without ever flipping to disconnected.
func TestChaosDelaysConverge(t *testing.T) {
	e := newChaosEnv(t,
		eventlayer.FaultConfig{Seed: 13, DelayRate: 0.5, MaxDelay: 30 * time.Millisecond},
		core.Options{}, appserver.Options{HeartbeatTimeout: time.Second})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, _ := mustSubscribe(t, e, spec)

	for i := 0; i < 40; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%02d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	if delayed := e.fbus.Stats().Delayed; delayed == 0 {
		t.Fatal("fault injection delayed nothing; the scenario is vacuous")
	}
	waitConverged(t, e, sub, spec, 10*time.Second)
	if got := e.server.Reconnects(); got != 0 {
		t.Fatalf("delays triggered %d reconnects, want 0", got)
	}
}

// TestChaosReorderingConverges: messages on the write and notification
// topics are held back past their successors. The cluster discards stale
// write versions and the client's per-key version guard discards stale
// notifications, so repeated updates to the same keys still converge to the
// newest value.
func TestChaosReorderingConverges(t *testing.T) {
	topics := core.NewTopics("")
	e := newChaosEnv(t,
		eventlayer.FaultConfig{
			Seed:        17,
			ReorderRate: 0.4,
			Topics:      []string{topics.Writes(), topics.Notify("*")},
		},
		core.Options{}, appserver.Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, _ := mustSubscribe(t, e, spec)

	for i := 0; i < 5; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%d", i), "v": 0}); err != nil {
			t.Fatal(err)
		}
	}
	// Hammer the same keys so reordered updates genuinely contend.
	for round := 1; round <= 10; round++ {
		for i := 0; i < 5; i++ {
			key := fmt.Sprintf("k%d", i)
			if err := e.server.Update("c", key, map[string]any{"$set": map[string]any{"v": round}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if reordered := e.fbus.Stats().Reordered; reordered == 0 {
		t.Fatal("fault injection reordered nothing; the scenario is vacuous")
	}
	waitConverged(t, e, sub, spec, 10*time.Second)
	for _, d := range sub.Result() {
		if d["v"] != int64(10) {
			t.Fatalf("doc %v stuck at stale version", d)
		}
	}
}

// TestChaosNotificationPartitionFailover: a full partition of the
// notification topics outlasts the heartbeat timeout. The server must
// surface exactly one Disconnected event, keep every subscription alive,
// and after healing deliver exactly one Reconnected event carrying the
// complete result — including writes that happened during the partition.
// The measured heal→reconnect latency is the paper's failover metric
// (recorded in EXPERIMENTS.md).
func TestChaosNotificationPartitionFailover(t *testing.T) {
	e := newChaosEnv(t, eventlayer.FaultConfig{}, core.Options{}, appserver.Options{
		HeartbeatTimeout: 150 * time.Millisecond,
		ExtendInterval:   30 * time.Millisecond,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := mustSubscribe(t, e, spec)

	e.fbus.Partition(e.topics.Notify("*"))
	rec.waitFor(t, "disconnected", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventDisconnected
	})
	// A write during the partition: its notification is black-holed, but the
	// local database has it, so the re-subscription bootstrap recovers it.
	if err := e.server.Insert("c", document.Document{"_id": "during", "v": 1}); err != nil {
		t.Fatal(err)
	}
	// The disconnect must be reported exactly once even while the outage
	// persists across several watchdog checks.
	time.Sleep(400 * time.Millisecond)
	if got := rec.countType(appserver.EventDisconnected); got != 1 {
		t.Fatalf("disconnected reported %d times, want 1", got)
	}

	healedAt := time.Now()
	e.fbus.Heal()
	ev := rec.waitFor(t, "reconnected", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventReconnected
	})
	recovery := time.Since(healedAt)
	t.Logf("recovery time (heal -> reconnected): %v", recovery)

	found := false
	for _, d := range ev.Docs {
		if id, _ := d.ID(); id == "during" {
			found = true
		}
	}
	if !found {
		t.Fatalf("reconnected result misses the write made during the partition: %v", ev.Docs)
	}
	if got := e.server.Reconnects(); got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
	if got := rec.countType(appserver.EventReconnected); got != 1 {
		t.Fatalf("reconnected reported %d times, want 1", got)
	}
	// The resumed stream is live end-to-end.
	if err := e.server.Insert("c", document.Document{"_id": "after", "v": 2}); err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "post-heal add", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventAdd && ev.Key == "after"
	})
	waitConverged(t, e, sub, spec, 10*time.Second)
}

// waitMatchRestart waits until the supervisor has restarted a matching task
// and checks what the panic cost, as the runtime accounts for it: one restart,
// and exactly the tuple that was in flight dropped — no other tuple failed.
func waitMatchRestart(t *testing.T, e *chaosEnv) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	restarted := false
	for time.Now().Before(deadline) && !restarted {
		for _, st := range e.cluster.Stats() {
			if st.Component == "match" && st.Restarts > 0 {
				if st.Dead {
					t.Fatalf("match task %d marked dead, want restarted", st.TaskID)
				}
				restarted = true
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	if !restarted {
		t.Fatal("no match task was restarted after the injected panic")
	}
	gauges := e.cluster.Metrics().Snapshot().Gauges
	if failed, restarts := gauges["topology.match.failed"], gauges["topology.match.restarts"]; failed != 1 || restarts != 1 {
		t.Fatalf("topology.match.failed = %v, restarts = %v; want 1 and 1", failed, restarts)
	}
}

func resultIDs(sub *appserver.Subscription) string {
	var ids []string
	for _, d := range sub.Result() {
		id, _ := d.ID()
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return fmt.Sprint(ids)
}

// TestChaosMatchingNodePanicSelfHeals: a matching node panics mid-write.
// The topology supervisor must restart it with a fresh instance, the
// heartbeat must say so, and the application server must re-subscribe from
// the database — no client involvement, no manual Resubscribe. The batch in
// flight at the panic is dropped and counted; the re-subscription's fresh
// bootstrap brings the detonating document back.
func TestChaosMatchingNodePanicSelfHeals(t *testing.T) {
	var crashed atomic.Bool
	e := newChaosEnv(t, eventlayer.FaultConfig{}, core.Options{
		MatchHook: func(taskID int, kind string) {
			if (kind == "write" || kind == "writeBatch") && crashed.CompareAndSwap(false, true) {
				panic("chaos: injected matching-node crash")
			}
		},
	}, appserver.Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := mustSubscribe(t, e, spec)

	// This write detonates the hook on the matching node that receives it.
	if err := e.server.Insert("c", document.Document{"_id": "boom", "v": 1}); err != nil {
		t.Fatal(err)
	}
	waitMatchRestart(t, e)
	rec.waitFor(t, "reconnected", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventReconnected
	})
	// The repaired stream is live: a new write notifies.
	if err := e.server.Insert("c", document.Document{"_id": "post", "v": 2}); err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "post-crash add", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventAdd && ev.Key == "post"
	})
	waitConverged(t, e, sub, spec, 10*time.Second)
	if ids := resultIDs(sub); ids != "[boom post]" {
		t.Fatalf("result = %v, want the pull result including the detonating document: boom and post", ids)
	}
	if got := rec.countType(appserver.EventError); got != 0 {
		t.Fatalf("saw %d error events, want 0", got)
	}
}

// keyInColumn returns a key with the given prefix that hashes to write
// partition col of a two-column grid.
func keyInColumn(prefix string, col uint64) string {
	for i := 0; ; i++ {
		if key := fmt.Sprintf("%s%d", prefix, i); document.HashKey(key)%2 == col {
			return key
		}
	}
}

// TestChaosCellRestartConvergesUnaided pins why a restarted cell is repaired
// from the database and not from a copy of its subscriptions kept at
// subscribe time (DESIGN.md §3.4). A cell that holds the query is
// panicked by a write — a bystander that does not match, or one that does —
// after the result already changed since subscribe time; then a member the
// lost cell was tracking leaves the result. The restarted cell has no
// trackers, no staleness table and no retention ring: only a fresh read of
// the database can tell it that the member was ever there. Nothing but the
// heartbeat triggers the repair, and it runs once — also when the notify
// topic reorders and duplicates heartbeats around the restart.
func TestChaosCellRestartConvergesUnaided(t *testing.T) {
	unsorted := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sorted := unsorted
	sorted.Sort, sorted.Limit = []query.SortKey{{Path: "v", Desc: true}}, 3
	notifyFaults := eventlayer.FaultConfig{
		Seed: 29, ReorderRate: 0.3, DuplicateRate: 0.3, Topics: []string{core.NewTopics("").Notify("*")},
	}
	for _, tc := range []struct {
		name   string
		spec   query.Spec
		boomV  int
		faults eventlayer.FaultConfig
	}{
		{"unsorted/bystander-write", unsorted, -5, eventlayer.FaultConfig{}},
		{"unsorted/matching-write", unsorted, 7, eventlayer.FaultConfig{}},
		{"sorted-limit/bystander-write", sorted, -5, eventlayer.FaultConfig{}},
		{"sorted-limit/matching-write", sorted, 7, eventlayer.FaultConfig{}},
		{"unsorted/reordered-duplicated-heartbeats", unsorted, -5, notifyFaults},
	} {
		t.Run(tc.name, func(t *testing.T) { cellRestartScenario(t, tc.spec, tc.boomV, tc.faults) })
	}
}

func cellRestartScenario(t *testing.T, spec query.Spec, boomV int, faults eventlayer.FaultConfig) {
	var target atomic.Int64 // the match task to panic on its next write; -1 = none
	target.Store(-1)
	e := newChaosEnv(t, faults, core.Options{
		MatchHook: func(taskID int, kind string) {
			if (kind == "write" || kind == "writeBatch") && target.CompareAndSwap(int64(taskID), -1) {
				panic("chaos: injected matching-node crash")
			}
		},
	}, appserver.Options{})
	sub, rec := mustSubscribe(t, e, spec)

	// Every key lives in one write partition, so the cell that is lost is the
	// one tracking the member that later leaves.
	const col = 1
	a, b, boom, post := keyInColumn("a", col), keyInColumn("b", col), keyInColumn("boom", col), keyInColumn("post", col)
	for key, v := range map[string]int{a: 1, b: 2} {
		if err := e.server.Insert("c", document.Document{"_id": key, "v": v}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, e, sub, spec, 10*time.Second) // membership moved since subscribe time

	hash, err := e.server.QueryHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	target.Store(int64(hash%2)*2 + col) // the default 2 x 2 grid: task = row*2 + col
	if err := e.server.Insert("c", document.Document{"_id": boom, "v": boomV}); err != nil {
		t.Fatal(err)
	}
	waitMatchRestart(t, e)

	// A fresh write shows up again: the cell is back in business, however it
	// got its queries back. Then the member it tracked before the crash leaves.
	if err := e.server.Insert("c", document.Document{"_id": post, "v": 3}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for !strings.Contains(resultIDs(sub), post) {
		if time.Now().After(deadline) {
			t.Fatalf("write after the restart never reached the result: %v", resultIDs(sub))
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := e.server.Update("c", a, map[string]any{"$set": map[string]any{"v": -1}}); err != nil {
		t.Fatal(err)
	}
	waitConverged(t, e, sub, spec, 10*time.Second)
	rec.waitFor(t, "reconnected", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventReconnected
	})
	// One restart, one round: heartbeats keep arriving (reordered and
	// duplicated in one variant) and must not start another.
	time.Sleep(10 * e.cluster.Options().HeartbeatInterval)
	counters := e.server.Metrics().Snapshot().Counters
	if restarts, resubs := counters["appserver.cluster_restarts"], counters["appserver.resubscribes"]; restarts != 1 || resubs != 1 {
		t.Fatalf("appserver.cluster_restarts = %d, resubscribes = %d; want 1 and 1", restarts, resubs)
	}
	if got := rec.countType(appserver.EventReconnected); got != 1 {
		t.Fatalf("reconnected reported %d times, want 1", got)
	}
	if got := rec.countType(appserver.EventError); got != 0 {
		t.Fatalf("saw %d error events, want 0", got)
	}
	if got := e.server.Reconnects(); got != 0 {
		t.Fatalf("reconnects = %d, want 0: there was no heartbeat gap", got)
	}
	waitConverged(t, e, sub, spec, time.Second)
}

// awaitHeartbeat returns once the cluster has published a heartbeat for the
// server's tenant after the call: the server's notification stream then holds
// that heartbeat ahead of anything published later.
func awaitHeartbeat(t *testing.T, e *chaosEnv) {
	t.Helper()
	sub, err := e.mem.Subscribe(e.topics.Notify(e.server.Tenant()))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case msg := <-sub.C():
			if env, err := core.DecodeWire(msg.Payload); err == nil && env.Kind == core.KindHeartbeat {
				return
			}
		case <-deadline:
			t.Fatal("timed out waiting for a cluster heartbeat")
		}
	}
}

// TestChaosFastClusterReplacementIsNoticed: the cluster process is replaced
// faster than the heartbeat watchdog can notice a gap. The replacement holds
// no queries and ignores TTL extensions for them, so without the Boot id in
// its heartbeats the subscription would stay deaf until the client went away.
func TestChaosFastClusterReplacementIsNoticed(t *testing.T) {
	clusterOpts := core.Options{
		QueryPartitions: 2, WritePartitions: 2,
		TickInterval: 20 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond,
	}
	e := newChaosEnv(t, eventlayer.FaultConfig{}, clusterOpts, appserver.Options{
		HeartbeatTimeout: 2 * time.Second,
		// TTL extensions are how a replacement learns the tenant (and starts
		// heartbeating) when no write happens to arrive.
		ExtendInterval: 30 * time.Millisecond,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": 0}}}
	sub, rec := mustSubscribe(t, e, spec)
	if err := e.server.Insert("c", document.Document{"_id": "k1", "v": 1}); err != nil {
		t.Fatal(err)
	}
	rec.waitFor(t, "add before the replacement", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventAdd && ev.Key == "k1"
	})
	// The server knows the old process by its heartbeat; a process replaced
	// before the server ever heard from it cannot be told from its successor.
	awaitHeartbeat(t, e)

	e.cluster.Stop()
	replacement, err := core.NewCluster(e.fbus, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := replacement.Start(); err != nil {
		t.Fatal(err)
	}
	defer replacement.Stop()

	for _, key := range []string{"k2", "k3"} {
		if err := e.server.Insert("c", document.Document{"_id": key, "v": 1}); err != nil {
			t.Fatal(err)
		}
	}
	waitConverged(t, e, sub, spec, 10*time.Second)
	if ids := resultIDs(sub); ids != "[k1 k2 k3]" {
		t.Fatalf("result = %v, want [k1 k2 k3]", ids)
	}
	rec.waitFor(t, "reconnected", 5*time.Second, func(ev appserver.Event) bool {
		return ev.Type == appserver.EventReconnected
	})
	if got := e.server.Reconnects(); got != 0 {
		t.Fatalf("reconnects = %d, want 0: the replacement was faster than the watchdog", got)
	}
	if !e.server.Connected() {
		t.Fatal("server reports disconnected")
	}
	if got := e.server.Metrics().Snapshot().Counters["appserver.cluster_restarts"]; got != 1 {
		t.Fatalf("appserver.cluster_restarts = %d, want 1", got)
	}
	if got := rec.countType(appserver.EventReconnected); got != 1 {
		t.Fatalf("reconnected reported %d times, want 1", got)
	}
}
