package appserver

import (
	"fmt"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// env is a complete single-process deployment: database, event layer,
// InvaliDB cluster, and one application server.
type env struct {
	db      *storage.DB
	bus     *eventlayer.MemBus
	cluster *core.Cluster
	server  *Server
}

func newEnv(t *testing.T, clusterOpts core.Options, serverOpts Options) *env {
	t.Helper()
	return newEnvVia(t, clusterOpts, serverOpts, nil)
}

// newEnvVia is newEnv with the application server on wrap(bus) (nil: the bus
// itself), so a test can lose or count what the server publishes.
func newEnvVia(t *testing.T, clusterOpts core.Options, serverOpts Options, wrap func(eventlayer.Bus) eventlayer.Bus) *env {
	t.Helper()
	if clusterOpts.TickInterval == 0 {
		clusterOpts.TickInterval = 20 * time.Millisecond
	}
	if clusterOpts.HeartbeatInterval == 0 {
		clusterOpts.HeartbeatInterval = 50 * time.Millisecond
	}
	if clusterOpts.RetentionTime == 0 {
		clusterOpts.RetentionTime = 2 * time.Second
	}
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := core.NewCluster(bus, clusterOpts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	db := storage.Open(storage.Options{})
	var serverBus eventlayer.Bus = bus
	if wrap != nil {
		serverBus = wrap(bus)
	}
	srv, err := New(db, serverBus, serverOpts)
	if err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, bus: bus, cluster: cluster, server: srv}
	t.Cleanup(func() {
		_ = srv.Close()
		cluster.Stop()
		_ = bus.Close()
	})
	return e
}

func waitEvent(t *testing.T, sub *Subscription, want EventType) Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatalf("subscription closed while waiting for %v", want)
			}
			if ev.Type == want {
				return ev
			}
			if ev.Type == EventError {
				t.Fatalf("error event while waiting for %v: %v", want, ev.Err)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v event", want)
		}
	}
}

func expectNoEvent(t *testing.T, sub *Subscription, d time.Duration) {
	t.Helper()
	select {
	case ev, ok := <-sub.C():
		if ok {
			t.Fatalf("unexpected event %v (key %s)", ev.Type, ev.Key)
		}
	case <-time.After(d):
	}
}

// waitResult polls until the subscription's maintained result matches the
// database's pull-based answer — eventual consistency as the paper defines
// it (§5: results synchronize once InvaliDB has applied the same writes).
func waitResult(t *testing.T, e *env, sub *Subscription, spec query.Spec) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
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
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("subscription result never converged:\n got: %v\nwant: %v", got, want)
}

func sameDocs(a, b []document.Document) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !document.Equal(map[string]any(a[i]), map[string]any(b[i])) {
			return false
		}
	}
	return true
}

func drainInitial(t *testing.T, sub *Subscription) Event {
	t.Helper()
	return waitEvent(t, sub, EventInitial)
}

func TestUnsortedLifecycle(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	if err := e.server.Insert("tasks", document.Document{"_id": "t1", "done": false, "prio": 5}); err != nil {
		t.Fatal(err)
	}
	spec := query.Spec{Collection: "tasks", Filter: map[string]any{"done": false}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	init := drainInitial(t, sub)
	if len(init.Docs) != 1 {
		t.Fatalf("initial result = %v", init.Docs)
	}

	// A matching insert produces add.
	if err := e.server.Insert("tasks", document.Document{"_id": "t2", "done": false, "prio": 1}); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventAdd)
	if ev.Key != "t2" || ev.Index != -1 {
		t.Fatalf("add event = %+v", ev)
	}

	// An update keeping the match produces change.
	if err := e.server.Update("tasks", "t2", map[string]any{"$set": map[string]any{"prio": 9}}); err != nil {
		t.Fatal(err)
	}
	ev = waitEvent(t, sub, EventChange)
	if ev.Doc["prio"] != int64(9) {
		t.Fatalf("change doc = %v", ev.Doc)
	}

	// An update breaking the match produces remove.
	if err := e.server.Update("tasks", "t1", map[string]any{"$set": map[string]any{"done": true}}); err != nil {
		t.Fatal(err)
	}
	if ev = waitEvent(t, sub, EventRemove); ev.Key != "t1" {
		t.Fatalf("remove event = %+v", ev)
	}

	// A delete produces remove.
	if err := e.server.Delete("tasks", "t2"); err != nil {
		t.Fatal(err)
	}
	if ev = waitEvent(t, sub, EventRemove); ev.Key != "t2" {
		t.Fatalf("remove event = %+v", ev)
	}

	// Irrelevant writes produce nothing.
	if err := e.server.Insert("tasks", document.Document{"_id": "t3", "done": true}); err != nil {
		t.Fatal(err)
	}
	if err := e.server.Insert("other", document.Document{"_id": "t4", "done": false}); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, sub, 150*time.Millisecond)
	if sub.Dropped() != 0 {
		t.Fatalf("dropped events: %d", sub.Dropped())
	}
}

func TestUnsortedResultConvergesUnder2DPartitioning(t *testing.T) {
	e := newEnv(t, core.Options{QueryPartitions: 2, WritePartitions: 2}, Options{})
	spec := query.Spec{Collection: "n", Filter: map[string]any{"v": map[string]any{"$gte": 50}}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	for i := 0; i < 60; i++ {
		if err := e.server.Insert("n", document.Document{"_id": fmt.Sprintf("k%02d", i), "v": i}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 40; i < 50; i++ { // move some into the result
		if err := e.server.Update("n", fmt.Sprintf("k%02d", i), map[string]any{"$inc": map[string]any{"v": 15}}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 50; i < 55; i++ { // and some out
		if err := e.server.Delete("n", fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitResult(t, e, sub, spec)
}

// TestFigure3SortedQuery drives the paper's Figure 3 example end to end: a
// sorted query with OFFSET 2 LIMIT 3 over articles by year DESC, with the
// offset-removal update scenario the paper uses to motivate auxiliary data.
func TestFigure3SortedQuery(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{Slack: 2})
	articles := []struct {
		id, title string
		year      int
	}{
		{"5", "DB Fun", 2018},
		{"8", "No SQL!", 2018},
		{"3", "BaaS For Dummies", 2017},
		{"4", "Query Languages", 2017},
		{"7", "Streams in Action", 2016},
		{"9", "SaaS For Dummies", 2016},
		{"2", "Old Classic", 2010},
	}
	for _, a := range articles {
		if err := e.server.Insert("articles", document.Document{"_id": a.id, "title": a.title, "year": a.year}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{
		Collection: "articles",
		Sort:       []query.SortKey{{Path: "year", Desc: true}},
		Offset:     2,
		Limit:      3,
	}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	init := drainInitial(t, sub)
	if got := ids(init.Docs); got != "3,4,7" {
		t.Fatalf("initial window = %s, want 3,4,7", got)
	}

	// Remove an article from the offset ('No SQL!'): 'BaaS For Dummies'
	// moves into the offset and 'SaaS For Dummies' moves into the result.
	if err := e.server.Delete("articles", "8"); err != nil {
		t.Fatal(err)
	}
	waitResult(t, e, sub, spec)
	if got := ids(sub.Result()); got != "4,7,9" {
		t.Fatalf("window after offset deletion = %s, want 4,7,9", got)
	}

	// An update that moves an item within the window produces changeIndex:
	// lifting '9' to 2017 moves it from window position 2 to 1 (window was
	// [4, 7, 9]; it becomes [4, 9, 7]).
	if err := e.server.Update("articles", "9", map[string]any{"$set": map[string]any{"year": 2017}}); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventChangeIndex)
	if ev.Key != "9" || ev.Index != 1 {
		t.Fatalf("changeIndex = key %s idx %d, want key 9 idx 1", ev.Key, ev.Index)
	}
	waitResult(t, e, sub, spec)

	// A new top article shifts everything: the window follows.
	if err := e.server.Insert("articles", document.Document{"_id": "1", "title": "Fresh", "year": 2019}); err != nil {
		t.Fatal(err)
	}
	waitResult(t, e, sub, spec)
}

func ids(docs []document.Document) string {
	s := ""
	for i, d := range docs {
		if i > 0 {
			s += ","
		}
		id, _ := d.ID()
		s += id
	}
	return s
}

func TestSortedQueryMaintenanceErrorAndRenewal(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{Slack: 1, RenewalMinInterval: time.Millisecond})
	for i := 0; i < 20; i++ {
		if err := e.server.Insert("s", document.Document{"_id": fmt.Sprintf("k%02d", i), "rank": i}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{
		Collection: "s",
		Sort:       []query.SortKey{{Path: "rank"}},
		Limit:      3,
	}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	init := drainInitial(t, sub)
	if got := ids(init.Docs); got != "k00,k01,k02" {
		t.Fatalf("initial = %s", got)
	}
	// Deleting more items than the slack can absorb forces a maintenance
	// error; the renewal must be transparent and converge to the database
	// state.
	for i := 0; i < 8; i++ {
		if err := e.server.Delete("s", fmt.Sprintf("k%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	waitResult(t, e, sub, spec)
	if got := ids(sub.Result()); got != "k08,k09,k10" {
		t.Fatalf("post-renewal window = %s, want k08,k09,k10", got)
	}
}

// TestSortedWindowHorizonAfterLosingMembers: once the tracked region of a
// sorted limit query has shrunk below offset+limit+slack, an add that sorts
// past its last entry is beyond the horizon — untracked documents precede it
// — and must never surface in the window ahead of them.
func TestSortedWindowHorizonAfterLosingMembers(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{Slack: 2, MaxSlack: 2, RenewalMinInterval: time.Millisecond})
	for i := 0; i < 20; i++ {
		if err := e.server.Insert("s", document.Document{"_id": fmt.Sprintf("k%02d", i), "rank": i}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{
		Collection: "s",
		Sort:       []query.SortKey{{Path: "rank"}},
		Limit:      3,
	}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	// Tracked: k00..k04 of 20. The two slack members leave; the window is
	// still full, so the query stays maintainable.
	for _, k := range []string{"k03", "k04"} {
		if err := e.server.Delete("s", k); err != nil {
			t.Fatal(err)
		}
	}
	expectNoEvent(t, sub, 100*time.Millisecond)
	// Sorts after k02, the last tracked entry, but also after k05..k19.
	if err := e.server.Insert("s", document.Document{"_id": "late", "rank": 50}); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, sub, 100*time.Millisecond)
	// A window member leaves: its replacement is k05, not the late add.
	if err := e.server.Delete("s", "k00"); err != nil {
		t.Fatal(err)
	}
	waitEvent(t, sub, EventRemove)
	waitResult(t, e, sub, spec)
	if got := ids(sub.Result()); got != "k01,k02,k05" {
		t.Fatalf("window = %s, want k01,k02,k05", got)
	}
}

func TestSortedUnlimitedWithOffset(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	for i := 0; i < 5; i++ {
		if err := e.server.Insert("u", document.Document{"_id": fmt.Sprint(i), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{Collection: "u", Sort: []query.SortKey{{Path: "n"}}, Offset: 2}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	init := drainInitial(t, sub)
	if got := ids(init.Docs); got != "2,3,4" {
		t.Fatalf("initial = %s", got)
	}
	// Insert at the very front: item 2 must slide into the offset region
	// and item "1.5" is not visible; window gains former offset member.
	if err := e.server.Insert("u", document.Document{"_id": "x", "n": -1}); err != nil {
		t.Fatal(err)
	}
	waitResult(t, e, sub, spec)
	if got := ids(sub.Result()); got != "1,2,3,4" {
		t.Fatalf("window = %s, want 1,2,3,4", got)
	}
}

func TestMultiTenancyIsolation(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{Tenant: "appA"})
	dbB := storage.Open(storage.Options{})
	srvB, err := New(dbB, e.bus, Options{Tenant: "appB"})
	if err != nil {
		t.Fatal(err)
	}
	defer srvB.Close()

	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	subA, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	subB, err := srvB.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, subA)
	drainInitial(t, subB)

	// The same key and collection in tenant B must not leak into tenant A.
	if err := srvB.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, subB, EventAdd); ev.Key != "k" {
		t.Fatalf("tenant B add = %+v", ev)
	}
	expectNoEvent(t, subA, 150*time.Millisecond)
}

func TestSharedQueryAcrossSubscriptions(t *testing.T) {
	e := newEnv(t, core.Options{QueryPartitions: 4}, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": map[string]any{"$gt": 0}}}
	sub1, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	sub2, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub1)
	drainInitial(t, sub2)
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 5}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub1, EventAdd); ev.Key != "k" {
		t.Fatal("sub1 missed the add")
	}
	if ev := waitEvent(t, sub2, EventAdd); ev.Key != "k" {
		t.Fatal("sub2 missed the add")
	}
	// Cancelling one subscription keeps the other alive.
	_ = sub1.Close()
	time.Sleep(50 * time.Millisecond)
	if err := e.server.Update("c", "k", map[string]any{"$set": map[string]any{"x": 7}}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub2, EventChange); ev.Key != "k" {
		t.Fatal("surviving subscription missed the change")
	}
}

func TestCancellationStopsNotifications(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the cancellation reach the cluster
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev, ok := <-sub.C():
		if ok {
			t.Fatalf("event after Close: %+v", ev)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestTTLExpiryDeactivatesQuery(t *testing.T) {
	e := newEnv(t, core.Options{TickInterval: 10 * time.Millisecond}, Options{
		TTL:            80 * time.Millisecond,
		ExtendInterval: time.Hour, // never extend
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	time.Sleep(250 * time.Millisecond) // well past TTL
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, sub, 200*time.Millisecond)
}

func TestTTLExtensionKeepsQueryAlive(t *testing.T) {
	e := newEnv(t, core.Options{TickInterval: 10 * time.Millisecond}, Options{
		TTL:            120 * time.Millisecond,
		ExtendInterval: 30 * time.Millisecond,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	time.Sleep(400 * time.Millisecond) // several TTLs, kept alive by extensions
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventAdd); ev.Key != "k" {
		t.Fatal("extended subscription missed the add")
	}
}

// publishHeartbeat injects a cluster heartbeat directly on the event layer,
// standing in for a live cluster. Publish errors are ignored so it is safe
// to call from helper goroutines racing test teardown.
func publishHeartbeat(e *env, tenant string) {
	env := &core.Envelope{Kind: core.KindHeartbeat, Heartbeat: &core.Heartbeat{
		Tenant:     tenant,
		TimeMillis: time.Now().UnixMilli(),
	}}
	if data, err := env.Encode(); err == nil {
		_ = e.bus.Publish(core.NewTopics("").Notify(tenant), data)
	}
}

func TestHeartbeatLossDisconnectsAndRecovers(t *testing.T) {
	e := newEnv(t, core.Options{HeartbeatInterval: 20 * time.Millisecond}, Options{
		HeartbeatTimeout: 200 * time.Millisecond,
		// Short TTL extensions let a replacement cluster learn the tenant
		// quickly and resume heartbeats.
		ExtendInterval: 30 * time.Millisecond,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	// Taking the cluster down stops heartbeats; the pull-based path keeps
	// working (isolated failure domain) while subscriptions are told about
	// the disconnect — but survive it.
	e.cluster.Stop()
	waitEvent(t, sub, EventDisconnected)
	if _, err := e.server.Query(spec); err != nil {
		t.Fatalf("pull-based query failed after cluster outage: %v", err)
	}
	if e.server.Connected() {
		t.Fatal("server still reports connected after heartbeat loss")
	}
	// The disconnect is reported exactly once, even across several further
	// watchdog ticks, and the subscription channel stays open.
	expectNoEvent(t, sub, 400*time.Millisecond)

	// A replacement cluster on the same event layer resumes heartbeats; the
	// server re-subscribes automatically and the fresh cluster learns the
	// query from the re-subscription.
	cluster2, err := core.NewCluster(e.bus, core.Options{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster2.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster2.Stop()
	waitEvent(t, sub, EventReconnected)
	if got := e.server.Reconnects(); got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
	// The resumed delivery stream is live end to end.
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventAdd); ev.Key != "k" {
		t.Fatalf("post-recovery add = %+v", ev)
	}
}

func TestHeartbeatShortGapDoesNotDisturbSubscriptions(t *testing.T) {
	e := newEnv(t, core.Options{HeartbeatInterval: 20 * time.Millisecond}, Options{
		HeartbeatTimeout: 500 * time.Millisecond,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	// A heartbeat gap shorter than the timeout: stop the cluster, then keep
	// the server alive with manual heartbeats before the watchdog fires.
	e.cluster.Stop()
	time.Sleep(150 * time.Millisecond)
	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				publishHeartbeat(e, e.server.Tenant())
			}
		}
	}()
	defer func() { close(stop); <-done }()
	// No disconnect, no reconnect: the gap never crossed the timeout.
	expectNoEvent(t, sub, 700*time.Millisecond)
	if !e.server.Connected() {
		t.Fatal("short heartbeat gap flipped the server to disconnected")
	}
	if got := e.server.Reconnects(); got != 0 {
		t.Fatalf("reconnects = %d, want 0", got)
	}
}

func TestHeartbeatLongGapResubscribesExactlyOnce(t *testing.T) {
	e := newEnv(t, core.Options{HeartbeatInterval: 20 * time.Millisecond}, Options{
		HeartbeatTimeout: 100 * time.Millisecond,
		ExtendInterval:   30 * time.Millisecond,
	})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	e.cluster.Stop()
	waitEvent(t, sub, EventDisconnected)

	cluster2, err := core.NewCluster(e.bus, core.Options{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster2.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster2.Stop()
	ev := waitEvent(t, sub, EventReconnected)
	if ev.Docs == nil && len(sub.Result()) != 0 {
		t.Fatalf("reconnect event carried no result: %+v", ev)
	}
	// Exactly one re-subscription despite heartbeats arriving continuously
	// after recovery.
	expectNoEvent(t, sub, 400*time.Millisecond)
	if got := e.server.Reconnects(); got != 1 {
		t.Fatalf("reconnects = %d, want 1", got)
	}
}

func TestWriteSubscriptionRaceClosedByRetention(t *testing.T) {
	// A write that reaches the cluster before the subscription, and is
	// missing from the initial result, must still be delivered via the
	// retention buffer replay (§5.1).
	e := newEnv(t, core.Options{}, Options{})
	// Bypass the server: write straight to the database, then publish the
	// after-image, then subscribe with the *stale* result computed before
	// the write (simulating the race).
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub := mustStaleSubscribe(t, e, spec)
	if ev := waitEvent(t, sub, EventAdd); ev.Key != "raced" {
		t.Fatalf("retention replay delivered %+v", ev)
	}
	waitResult(t, e, sub, spec)
}

// mustStaleSubscribe publishes a write to the cluster and then subscribes
// with an initial result that predates it.
func mustStaleSubscribe(t *testing.T, e *env, spec query.Spec) *Subscription {
	t.Helper()
	ai, err := e.db.C("c").Insert(document.Document{"_id": "raced", "x": 1})
	if err != nil {
		t.Fatal(err)
	}
	// The subscription's bootstrap result is computed WITHOUT the racing
	// write (empty), as if the pull-based query ran first.
	sub := e.server.newSubscription(query.MustCompile(spec))
	e.server.attach(sub)

	// Write reaches the cluster first...
	if err := e.server.forward(ai); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	// ...then the subscription arrives with a stale (empty) result.
	if err := e.server.publishSubscribe(sub, nil); err != nil {
		t.Fatal(err)
	}
	sub.installInitial(nil, ai.Version-1)
	waitEvent(t, sub, EventInitial)
	return sub
}

func TestStaleWriteIgnored(t *testing.T) {
	// An older version arriving after a newer one must be dropped (§5.1
	// staleness avoidance).
	e := newEnv(t, core.Options{}, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": map[string]any{"$gte": 0}}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)

	newer := &document.AfterImage{Collection: "c", Key: "k", Version: 10, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "x": int64(2)}}
	older := &document.AfterImage{Collection: "c", Key: "k", Version: 5, Op: document.OpUpdate,
		Doc: document.Document{"_id": "k", "x": int64(1)}}
	if err := e.server.forward(newer); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventAdd)
	if ev.Doc["x"] != int64(2) {
		t.Fatalf("add doc = %v", ev.Doc)
	}
	if err := e.server.forward(older); err != nil {
		t.Fatal(err)
	}
	expectNoEvent(t, sub, 150*time.Millisecond)
	if got := sub.Result(); len(got) != 1 || got[0]["x"] != int64(2) {
		t.Fatalf("stale write changed the result: %v", got)
	}
}

func TestProjectionAppliedToNotifications(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	spec := query.Spec{
		Collection: "c",
		Filter:     map[string]any{"x": 1},
		Projection: []string{"x"},
	}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 1, "secret": "s"}); err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventAdd)
	if _, leaked := ev.Doc["secret"]; leaked {
		t.Fatalf("projection leaked a field: %v", ev.Doc)
	}
	if ev.Doc["x"] != int64(1) || ev.Doc["_id"] != "k" {
		t.Fatalf("projected doc = %v", ev.Doc)
	}
}

func TestInvalidQueryRejectedLocally(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	_, err := e.server.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"$bogus": 1}})
	if err == nil {
		t.Fatal("invalid query accepted")
	}
}

func TestSortedQueryUnderGridPartitioning(t *testing.T) {
	// The full grid (QP=2, WP=3) with a sorted query: result partitions are
	// spread across write partitions and reassembled by the sorting stage.
	e := newEnv(t, core.Options{QueryPartitions: 2, WritePartitions: 3}, Options{Slack: 4})
	for i := 0; i < 30; i++ {
		if err := e.server.Insert("g", document.Document{"_id": fmt.Sprintf("k%02d", i), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{Collection: "g", Sort: []query.SortKey{{Path: "n", Desc: true}}, Limit: 5}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	init := drainInitial(t, sub)
	if got := ids(init.Docs); got != "k29,k28,k27,k26,k25" {
		t.Fatalf("initial = %s", got)
	}
	if err := e.server.Insert("g", document.Document{"_id": "top", "n": 99}); err != nil {
		t.Fatal(err)
	}
	waitResult(t, e, sub, spec)
	if got := ids(sub.Result()); got != "top,k29,k28,k27,k26" {
		t.Fatalf("after insert = %s", got)
	}
	if err := e.server.Delete("g", "top"); err != nil {
		t.Fatal(err)
	}
	waitResult(t, e, sub, spec)
}
