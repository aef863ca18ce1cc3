package core

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
)

// kindCounter is a MatchHook that counts the tuples one process's matching
// cells execute, by kind; its first write panics when crashOnWrite is set.
type kindCounter struct {
	crashOnWrite bool
	crashed      atomic.Bool
	mu           sync.Mutex
	kinds        map[string]int
}

func (k *kindCounter) hook(taskID int, kind string) {
	k.mu.Lock()
	if k.kinds == nil {
		k.kinds = map[string]int{}
	}
	k.kinds[kind]++
	k.mu.Unlock()
	if k.crashOnWrite && kind == kindWrite && k.crashed.CompareAndSwap(false, true) {
		panic("injected matching-cell crash")
	}
}

func (k *kindCounter) count(kind string) int {
	k.mu.Lock()
	defer k.mu.Unlock()
	return k.kinds[kind]
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("timeout: " + what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestResyncIsServedOnlyByTheProcessThatAskedForIt: a ResyncRequest names a
// component and task but no process, every grid node hears the queries topic,
// and the heartbeat re-publishes a request until it is served. Only the node
// whose task restarted may answer, and only once — another node re-installing
// its healthy cell's queries would also publish a restart certificate for
// every backfill in flight on its row, throwing away their progress.
func TestResyncIsServedOnlyByTheProcessThatAskedForIt(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	topics := NewTopics("")
	publish := func(topic string, env *Envelope) {
		t.Helper()
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := bus.Publish(topic, data); err != nil {
			t.Fatal(err)
		}
	}
	// A 2 x 1 grid: row 0 on node a, row 1 on node b. Both nodes run their
	// cell as match[0], which is what makes an unaddressed request ambiguous.
	publish(topics.Control(), &Envelope{Kind: KindPartitionMap, Map: &PartitionMap{
		Epoch: 1, QueryPartitions: 2, WritePartitions: 1,
		Rows: []RowAssignment{{Node: "a", Slot: 0}, {Node: "b", Slot: 0}},
	}})
	hooks := map[string]*kindCounter{"a": {crashOnWrite: true}, "b": {}}
	for name, h := range hooks {
		cl, err := NewCluster(bus, Options{
			NodeID: name, TickInterval: 20 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond,
			MatchHook: h.hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		waitUntil(t, "partition map installed on "+name, func() bool { return cl.CurrentMap() != nil })
	}
	a, b := hooks["a"], hooks["b"]

	// One query per row.
	specs := map[int]query.Spec{}
	for v := 0; len(specs) < 2; v++ {
		spec := query.Spec{Collection: "c", Filter: map[string]any{"v": v}}
		specs[int(TenantQueryHash("t", query.MustCompile(spec))%2)] = spec
	}
	notif, err := bus.Subscribe(topics.Notify("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer notif.Close()

	ttl := time.Minute.Milliseconds()
	publish(topics.Queries(), &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
		Tenant: "t", SubscriptionID: "on-a", Query: specs[0], TTLMillis: ttl, Epoch: 1,
	}})
	// Node b's row has a backfill in flight: started, no chunk certified yet.
	publish(topics.Queries(), &Envelope{Kind: KindBackfillStart, BackfillStart: &BackfillStart{
		Tenant: "t", SubscriptionID: "on-b", BackfillID: "bf1", Query: specs[1], TTLMillis: ttl, Epoch: 1,
	}})
	waitUntil(t, "installs", func() bool { return a.count(kindSubscribe) == 1 && b.count(kindSubscribe) == 1 })

	// The write detonates node a's cell; its supervisor restarts match[0] and
	// node a asks for a resync on the shared queries topic.
	publish(topics.Writes(), &Envelope{Kind: KindWrite, Write: &WriteEvent{
		Tenant: "t",
		Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
			Doc: document.Document{"_id": "k", "v": int64(-1)},
		},
	}})
	waitUntil(t, "node a's cell resynced", func() bool { return a.count(kindSubscribe) == 2 })

	// Deliver the request a second time, as a heartbeat retry racing the
	// first delivery would, then flush both nodes' query ingestion with one
	// extend per row: once a cell executed its extend, its node's ingest has
	// handled everything published before it.
	publish(topics.Queries(), &Envelope{Kind: KindResync, Resync: &ResyncRequest{Component: "match", TaskID: 0}})
	for row, sid := range []string{"on-a", "on-b"} {
		publish(topics.Queries(), &Envelope{Kind: KindExtend, Extend: &ExtendRequest{
			Tenant: "t", SubscriptionID: sid, TTLMillis: ttl,
			QueryHash: TenantQueryHash("t", query.MustCompile(specs[row])),
		}})
	}
	waitUntil(t, "extends executed", func() bool { return a.count(kindExtend) == 1 && b.count(kindExtend) == 1 })

	if got := a.count(kindSubscribe); got != 2 {
		t.Errorf("node a's cell executed %d subscribes, want 2 (install + one resync)", got)
	}
	if got := b.count(kindSubscribe); got != 1 {
		t.Errorf("node b's healthy cell executed %d subscribes, want 1 (install only): it served node a's resync", got)
	}
	for drained := false; !drained; {
		select {
		case msg := <-notif.C():
			env, err := DecodeWire(msg.Payload)
			if err == nil && env.Kind == KindBackfillCert && env.BackfillCert.Status == BackfillStatusRestart {
				t.Errorf("restart certificate published for backfill %q on node b's healthy row", env.BackfillCert.BackfillID)
			}
		default:
			drained = true
		}
	}
}

// failingBus refuses subscriptions to one topic.
type failingBus struct {
	eventlayer.Bus
	refuse string
}

func (b failingBus) Subscribe(patterns ...string) (eventlayer.Subscription, error) {
	for _, p := range patterns {
		if p == b.refuse {
			return nil, errors.New("subscribe refused")
		}
	}
	return b.Bus.Subscribe(patterns...)
}

// TestClusterStartFailureLeavesNothingRunning: the write spout opens after
// the query spout and every bolt; when its subscription is refused, Start
// reports the error with no task goroutine left behind, and Stop and a second
// Start stay harmless.
func TestClusterStartFailureLeavesNothingRunning(t *testing.T) {
	before := runtime.NumGoroutine()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	cl, err := NewCluster(failingBus{Bus: bus, refuse: NewTopics("").Writes()}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err == nil || !strings.Contains(err.Error(), "subscribe refused") {
		t.Fatalf("Start = %v, want the refused subscription", err)
	}
	waitUntil(t, "task goroutines gone", func() bool { return runtime.NumGoroutine() <= before })
	cl.Stop()
	if err := cl.Start(); err == nil {
		t.Fatal("second Start succeeded on a topology that already failed to start")
	}
	cl.Stop()
}
