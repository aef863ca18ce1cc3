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

func publishEnv(t *testing.T, bus eventlayer.Bus, topic string, env *Envelope) {
	t.Helper()
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(topic, data); err != nil {
		t.Fatal(err)
	}
}

// nextHeartbeat returns the next heartbeat delivered on sub.
func nextHeartbeat(t *testing.T, sub eventlayer.Subscription) *Heartbeat {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case msg := <-sub.C():
			if env, err := DecodeWire(msg.Payload); err == nil && env.Kind == KindHeartbeat {
				return env.Heartbeat
			}
		case <-deadline:
			t.Fatal("timeout waiting for a heartbeat")
		}
	}
}

// TestHeartbeatCarriesTheIncarnation: the cluster's whole part in recovery is
// to say that it lost state (DESIGN.md §3.4). A 2 x 2 cluster's heartbeats
// carry one Boot for its lifetime and Restarts = 0; one matching-cell panic
// later Restarts = 1, same Boot; a second cluster on the same bus — a
// replacement process — has a different Boot.
func TestHeartbeatCarriesTheIncarnation(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	topics := NewTopics("")
	notif, err := bus.Subscribe(topics.Notify("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer notif.Close()
	start := func(hook func(int, string)) *Cluster {
		cl, err := NewCluster(bus, Options{
			QueryPartitions: 2, WritePartitions: 2,
			TickInterval: 20 * time.Millisecond, HeartbeatInterval: 10 * time.Millisecond, MatchHook: hook,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		return cl
	}
	write := func(key string, version uint64) {
		publishEnv(t, bus, topics.Writes(), &Envelope{Kind: KindWrite, Write: &WriteEvent{
			Tenant: "t",
			Image: &document.AfterImage{
				Collection: "c", Key: key, Version: version, Op: document.OpInsert,
				Doc: document.Document{"_id": key},
			},
		}})
	}
	hook := &kindCounter{crashOnWrite: true}
	first := start(hook.hook)
	defer first.Stop()

	// A lease of a subscription nobody holds only makes the tenant known, so
	// heartbeats start.
	publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindLease, Lease: &Lease{Tenant: "t", Subs: []LeaseEntry{{SubscriptionID: "none"}}}})
	hb := nextHeartbeat(t, notif)
	boot := hb.Boot
	if hb.Node != "" || hb.Restarts != 0 {
		t.Fatalf("first heartbeat = %+v, want Node \"\" and Restarts 0", hb)
	}
	for i := 0; i < 3; i++ {
		if hb = nextHeartbeat(t, notif); hb.Boot != boot || hb.Restarts != 0 {
			t.Fatalf("heartbeat %+v, want the stable Boot %#x and Restarts 0", hb, boot)
		}
	}

	write("k1", 1) // detonates the cell it lands on
	waitUntil(t, "Restarts = 1 in the heartbeat", func() bool {
		hb = nextHeartbeat(t, notif)
		return hb.Restarts == 1
	})
	if hb.Boot != boot {
		t.Fatalf("Boot changed across a task restart: %#x -> %#x", boot, hb.Boot)
	}
	for i := 0; i < 3; i++ {
		if hb = nextHeartbeat(t, notif); hb.Restarts != 1 {
			t.Fatalf("heartbeat %+v after one restart, want Restarts 1", hb)
		}
	}

	second := start(nil)
	defer second.Stop()
	write("k2", 2) // the new process learns the tenant
	waitUntil(t, "a heartbeat from the second cluster", func() bool {
		hb = nextHeartbeat(t, notif)
		return hb.Boot != boot
	})
	if hb.Restarts != 0 {
		t.Fatalf("second cluster's heartbeat = %+v, want Restarts 0", hb)
	}
}

// TestNodeHoldsNothingForRowsItDoesNotOwn: every grid process hears every
// subscribe; one that does not own the query's row learns the tenant and
// nothing else — no cell installs the query, no count moves. (There used to
// be an ingest-side copy of every subscription on every process.)
func TestNodeHoldsNothingForRowsItDoesNotOwn(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	topics := NewTopics("")
	// A 2 x 1 grid: row 0 on node a, row 1 on node b.
	publishEnv(t, bus, topics.Control(), &Envelope{Kind: KindPartitionMap, Map: &PartitionMap{
		Epoch: 1, QueryPartitions: 2, WritePartitions: 1,
		Rows: []RowAssignment{{Node: "a", Slot: 0}, {Node: "b", Slot: 0}},
	}})
	hooks := map[string]*kindCounter{"a": {}, "b": {}}
	clusters := map[string]*Cluster{}
	for name, h := range hooks {
		cl, err := NewCluster(bus, Options{
			NodeID: name, TickInterval: 10 * time.Millisecond, HeartbeatInterval: 20 * time.Millisecond,
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
		clusters[name] = cl
	}
	a, b := hooks["a"], hooks["b"]

	var spec query.Spec
	for v := 0; ; v++ {
		spec = query.Spec{Collection: "c", Filter: map[string]any{"v": v}}
		if TenantQueryHash("t", query.MustCompile(spec))%2 == 0 {
			break // a query of row 0, node a's
		}
	}
	hash := TenantQueryHash("t", query.MustCompile(spec))
	ttl := time.Minute.Milliseconds()
	publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
		Tenant: "t", SubscriptionID: "s1", Query: spec, TTLMillis: ttl, Epoch: 1,
		Result: []ResultEntry{{Key: "k", Version: 1, Doc: document.Document{"_id": "k"}}},
	}})
	// A lease flushes both nodes' query ingestion: node b's ingest has
	// handled the subscribe once its tenant table shows the tenant.
	publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindLease, Lease: &Lease{
		Tenant: "t", TTLMillis: ttl, Subs: []LeaseEntry{{SubscriptionID: "s1", QueryHash: hash}},
	}})
	gauges := func(name string) (queries, subs, tenants float64) {
		g := clusters[name].Metrics().Snapshot().Gauges
		return g["cluster.queries"], g["cluster.subscriptions"], g["cluster.tenants"]
	}
	waitUntil(t, "node a holds the query", func() bool {
		q, s, _ := gauges("a")
		return a.count(kindLease) == 1 && q == 1 && s == 1
	})
	waitUntil(t, "node b knows the tenant", func() bool { _, _, n := gauges("b"); return n == 1 })
	if got := b.count(kindSubscribe) + b.count(kindLease); got != 0 {
		t.Errorf("node b's cell executed %d control tuples for a row it does not own", got)
	}
	time.Sleep(30 * time.Millisecond) // a few of node b's ticks
	if q, s, _ := gauges("b"); q != 0 || s != 0 {
		t.Errorf("node b holds %v queries / %v subscriptions of node a's row, want none", q, s)
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

// TestLeaseRefreshesBothEpochsInstalls: mid-migration a subscription is
// installed under the previous map and under the current one. When its row
// moved to another slot of the same process, one lease must reach both
// installs — a lease that refreshed only one would let the other lapse.
func TestLeaseRefreshesBothEpochsInstalls(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	topics := NewTopics("")
	hook := &kindCounter{}
	cl, err := NewCluster(bus, Options{
		NodeID: "a", QueryPartitions: 2, WritePartitions: 1,
		TickInterval: 10 * time.Millisecond, MatchHook: hook.hook,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	adopt := func(m *PartitionMap) {
		publishEnv(t, bus, topics.Control(), &Envelope{Kind: KindPartitionMap, Map: m})
		waitUntil(t, "partition map installed", func() bool { cur := cl.CurrentMap(); return cur != nil && cur.Epoch == m.Epoch })
	}
	var spec query.Spec
	for v := 0; ; v++ {
		spec = query.Spec{Collection: "c", Filter: map[string]any{"v": v}}
		if TenantQueryHash("t", query.MustCompile(spec))%2 == 0 {
			break // row 0 under a two-row map
		}
	}
	hash := TenantQueryHash("t", query.MustCompile(spec))
	subscribe := func(sid string, epoch uint64) {
		publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t", SubscriptionID: sid, Query: spec, TTLMillis: time.Second.Milliseconds(), Epoch: epoch,
		}})
	}
	held := func() float64 { return cl.Metrics().Snapshot().Gauges["cluster.subscriptions"] }

	// Epoch 1 places the one row at slot 1, epoch 2 places row 0 at slot 0:
	// the query's install moves from cell 1 to cell 0 of the same process.
	adopt(&PartitionMap{Epoch: 1, QueryPartitions: 1, WritePartitions: 1, Rows: []RowAssignment{{Node: "a", Slot: 1}}})
	subscribe("s1", 1)
	waitUntil(t, "s1 installed under epoch 1", func() bool { return held() == 1 })
	adopt(&PartitionMap{Epoch: 2, QueryPartitions: 2, WritePartitions: 1, Rows: []RowAssignment{{Node: "a", Slot: 0}, {Node: "a", Slot: 1}}})
	subscribe("s1", 2)
	subscribe("s2", 2) // never leased: it shows the TTL sweep ran
	waitUntil(t, "s1 installed under both epochs, s2 under the current one", func() bool { return held() == 3 })

	publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindLease, Lease: &Lease{
		Tenant: "t", TTLMillis: time.Minute.Milliseconds(), Subs: []LeaseEntry{{SubscriptionID: "s1", QueryHash: hash}},
	}})
	waitUntil(t, "s2 expired", func() bool { return held() == 2 })
	if got := hook.count(kindLease); got != 2 {
		t.Fatalf("%d lease tuples executed, want one per install (2)", got)
	}
	time.Sleep(50 * time.Millisecond) // a few more ticks
	if got := held(); got != 2 {
		t.Fatalf("%v subscriptions held after the lease, want s1 under both epochs (2)", got)
	}
}
