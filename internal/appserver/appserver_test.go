package appserver

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer/tcp"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(nil, nil, Options{}); err == nil {
		t.Fatal("nil dependencies accepted")
	}
}

func TestServerCloseIdempotentAndPullPathSurvives(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	if err := e.server.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if err := e.server.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.server.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.server.Subscribe(query.Spec{Collection: "c"}); err == nil {
		t.Fatal("subscribe after close accepted")
	}
	// The database is untouched by server shutdown.
	if d, _, ok := e.db.C("c").Get("k"); !ok || d["x"] != int64(1) {
		t.Fatal("database lost data on server close")
	}
}

func TestWriteErrorsPropagate(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	if err := e.server.Update("c", "missing", map[string]any{"$set": map[string]any{"x": 1}}); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("update missing: %v", err)
	}
	if err := e.server.Delete("c", "missing"); !errors.Is(err, storage.ErrNotFound) {
		t.Fatalf("delete missing: %v", err)
	}
	_ = e.server.Insert("c", document.Document{"_id": "dup"})
	if err := e.server.Insert("c", document.Document{"_id": "dup"}); !errors.Is(err, storage.ErrDuplicateKey) {
		t.Fatalf("duplicate insert: %v", err)
	}
}

func TestUpsertAndReplaceNotify(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": map[string]any{"$gte": 0}}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	if err := e.server.Upsert("c", "k", map[string]any{"$set": map[string]any{"x": 1}}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventAdd); ev.Key != "k" {
		t.Fatalf("upsert add: %+v", ev)
	}
	if err := e.server.Replace("c", "k", document.Document{"x": 5}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventChange); ev.Doc["x"] != int64(5) {
		t.Fatalf("replace change: %+v", ev)
	}
}

// TestSlackAblation quantifies the §5.2 trade-off the paper's slack
// parameter controls: a small slack exhausts quickly under deletes and
// forces frequent query renewals (pull queries against the database); a
// large slack absorbs the same churn without renewals.
func TestSlackAblation(t *testing.T) {
	if testing.Short() {
		t.Skip("ablation takes seconds")
	}
	run := func(slack int) uint64 {
		e := newEnv(t, core.Options{}, Options{Slack: slack, MaxSlack: slack, RenewalMinInterval: time.Millisecond})
		for i := 0; i < 40; i++ {
			if err := e.server.Insert("s", document.Document{"_id": fmt.Sprintf("k%02d", i), "rank": i}); err != nil {
				t.Fatal(err)
			}
		}
		spec := query.Spec{Collection: "s", Sort: []query.SortKey{{Path: "rank"}}, Limit: 3}
		sub, err := e.server.Subscribe(spec)
		if err != nil {
			t.Fatal(err)
		}
		drainInitial(t, sub)
		// Delete the head of the result repeatedly: each deletion consumes
		// slack.
		for i := 0; i < 20; i++ {
			if err := e.server.Delete("s", fmt.Sprintf("k%02d", i)); err != nil {
				t.Fatal(err)
			}
			time.Sleep(15 * time.Millisecond) // let renewals complete
		}
		waitResult(t, e, sub, spec)
		return e.server.Renewals()
	}
	small := run(1)
	large := run(32)
	if small == 0 {
		t.Fatal("slack=1 should force renewals under head-of-result deletions")
	}
	if large >= small {
		t.Fatalf("slack=32 renewed %d times, slack=1 %d times — slack should reduce renewal load", large, small)
	}
}

// newTCPStack boots the multi-process deployment shape (eventlayerd +
// invalidb-server + application server) in one process: a TCP broker, a 2×2
// cluster and one application server, each component holding its own broker
// connection.
func newTCPStack(t *testing.T, serverOpts Options) (*tcp.Server, *Server) {
	t.Helper()
	broker, err := tcp.Serve("127.0.0.1:0", tcp.ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = broker.Close() })

	clusterBus, err := tcp.Dial(broker.Addr(), tcp.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = clusterBus.Close() })
	cluster, err := core.NewCluster(clusterBus, core.Options{
		QueryPartitions:   2,
		WritePartitions:   2,
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cluster.Stop)

	serverBus, err := tcp.Dial(broker.Addr(), tcp.ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = serverBus.Close() })
	srv, err := New(storage.Open(storage.Options{}), serverBus, serverOpts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })

	time.Sleep(50 * time.Millisecond) // let broker subscriptions settle
	return broker, srv
}

// TestOverTCPBroker drives the full stack across the TCP event layer.
func TestOverTCPBroker(t *testing.T) {
	_, srv := newTCPStack(t, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := srv.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	if err := srv.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventAdd); ev.Key != "k" {
		t.Fatalf("add over TCP: %+v", ev)
	}
	if err := srv.Delete("c", "k"); err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventRemove); ev.Key != "k" {
		t.Fatalf("remove over TCP: %+v", ev)
	}
}

// TestLeaseIsOneFramePerChunk: one lease of 5 000 subscriptions — more than
// the broker's 4 096-frame drop-oldest session queue — is ⌈5000/leaseChunk⌉
// = 2 frames on a TCP broker, and the broker drops none of them.
func TestLeaseIsOneFramePerChunk(t *testing.T) {
	const subs = 5000
	broker, srv := newTCPStack(t, Options{ExtendInterval: time.Hour}) // the ticker never leases
	for i := 0; i < subs; i++ {
		srv.attach(srv.newSubscription(query.MustCompile(query.Spec{Collection: "c", Filter: map[string]any{"x": i}})))
	}
	gauge := func(name string) float64 { return srv.Metrics().Snapshot().Gauges[name] }
	encoded, decoded := gauge("wire.encode.lease.messages"), gauge("wire.decode.lease.messages")
	srv.lease()
	if got := gauge("wire.encode.lease.messages") - encoded; got != 2 {
		t.Fatalf("one lease of %d subscriptions published %v frames, want 2", subs, got)
	}
	deadline := time.Now().Add(5 * time.Second)
	for gauge("wire.decode.lease.messages")-decoded < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the cluster never decoded both lease frames")
		}
		time.Sleep(time.Millisecond)
	}
	if _, _, dropped := broker.Stats(); dropped != 0 {
		t.Fatalf("broker dropped %d frames", dropped)
	}
}

// TestRandomizedSortedConvergence applies a seeded random operation mix to
// a sorted windowed query and checks the push-based result converges to the
// pull-based result after every burst — the eventual-consistency contract
// under the trickiest query class.
func TestRandomizedSortedConvergence(t *testing.T) {
	if testing.Short() {
		t.Skip("randomized convergence takes seconds")
	}
	e := newEnv(t, core.Options{QueryPartitions: 2, WritePartitions: 2}, Options{
		Slack: 2, RenewalMinInterval: time.Millisecond,
	})
	rng := rand.New(rand.NewSource(7))
	keys := make([]string, 30)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%02d", i)
	}
	live := map[string]bool{}
	spec := query.Spec{
		Collection: "r",
		Filter:     map[string]any{"grp": "a"},
		Sort:       []query.SortKey{{Path: "score", Desc: true}},
		Offset:     1,
		Limit:      4,
	}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	for burst := 0; burst < 8; burst++ {
		for op := 0; op < 10; op++ {
			key := keys[rng.Intn(len(keys))]
			switch {
			case !live[key]:
				grp := "a"
				if rng.Intn(4) == 0 {
					grp = "b" // outside the filter
				}
				if err := e.server.Insert("r", document.Document{"_id": key, "grp": grp, "score": rng.Intn(100)}); err != nil {
					t.Fatal(err)
				}
				live[key] = true
			case rng.Intn(3) == 0:
				if err := e.server.Delete("r", key); err != nil {
					t.Fatal(err)
				}
				live[key] = false
			default:
				if err := e.server.Update("r", key, map[string]any{"$set": map[string]any{"score": rng.Intn(100)}}); err != nil {
					t.Fatal(err)
				}
			}
			time.Sleep(2 * time.Millisecond)
		}
		waitResult(t, e, sub, spec)
	}
}

func TestSubscriptionResultUnsortedOrderedByKey(t *testing.T) {
	e := newEnv(t, core.Options{}, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	drainInitial(t, sub)
	for _, k := range []string{"zz", "aa", "mm"} {
		if err := e.server.Insert("c", document.Document{"_id": k, "x": 1}); err != nil {
			t.Fatal(err)
		}
	}
	waitResult(t, e, sub, spec)
	got := ids(sub.Result())
	if got != "aa,mm,zz" {
		t.Fatalf("unsorted Result order = %s, want deterministic key order", got)
	}
}

func TestEventTypeString(t *testing.T) {
	for ev, want := range map[EventType]string{
		EventInitial: "initial", EventAdd: "add", EventChange: "change",
		EventChangeIndex: "changeIndex", EventRemove: "remove", EventError: "error",
	} {
		if ev.String() != want {
			t.Fatalf("%d.String() = %s, want %s", ev, ev.String(), want)
		}
	}
	if EventType(99).String() == "" {
		t.Fatal("unknown event type String empty")
	}
}
