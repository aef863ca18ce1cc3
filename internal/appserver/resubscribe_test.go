package appserver

import (
	"sync"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// gateBus counts subscribe requests per subscription and, while a gate is
// set, holds each one back until the gate opens.
type gateBus struct {
	eventlayer.Bus
	mu         sync.Mutex
	gate       chan struct{}
	waiting    chan struct{} // receives once per subscribe held at the gate
	subscribes map[string]int
}

func (b *gateBus) Publish(topic string, payload []byte) error {
	if env, err := core.DecodeWire(payload); err == nil && env.Kind == core.KindSubscribe {
		b.mu.Lock()
		gate := b.gate
		b.mu.Unlock()
		if gate != nil {
			b.waiting <- struct{}{}
			<-gate
		}
		b.mu.Lock()
		b.subscribes[env.Subscribe.SubscriptionID]++
		b.mu.Unlock()
	}
	return b.Bus.Publish(topic, payload)
}

func (b *gateBus) counts() map[string]int {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := map[string]int{}
	for k, v := range b.subscribes {
		out[k] = v
	}
	return out
}

// TestResubscriptionRequestedDuringAPassRunsOneMorePass: every restart of a
// stateful cluster task asks for a re-subscription pass, so a second fault can
// be observed while the pass for the first is half-way. The subscriptions the
// pass already handled were re-installed before the second fault — they need
// the second pass too. Requests that arrive mid-pass coalesce into exactly one
// more pass after it.
func TestResubscriptionRequestedDuringAPassRunsOneMorePass(t *testing.T) {
	mem := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer mem.Close()
	bus := &gateBus{Bus: mem, waiting: make(chan struct{}, 1), subscribes: map[string]int{}}
	// No cluster: the test is the cluster, one hand-made heartbeat at a time.
	srv, err := New(storage.Open(storage.Options{}), bus, Options{HeartbeatTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	heartbeat := func(restarts uint64) {
		t.Helper()
		env := &core.Envelope{Kind: core.KindHeartbeat, Heartbeat: &core.Heartbeat{
			Tenant: srv.Tenant(), TimeMillis: time.Now().UnixMilli(), Boot: 42, Restarts: restarts,
		}}
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if err := mem.Publish(core.NewTopics("").Notify(srv.Tenant()), data); err != nil {
			t.Fatal(err)
		}
	}
	counter := func(name string) int64 { return srv.Metrics().Snapshot().Counters[name] }
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timeout: %s (subscribes: %v)", what, bus.counts())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	const n = 3
	for i := 0; i < n; i++ {
		sub, err := srv.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": i}})
		if err != nil {
			t.Fatal(err)
		}
		go func() { // until srv.Close ends the stream
			for range sub.C() {
			}
		}()
	}
	heartbeat(0) // first sight of the node

	// The first restart starts a pass; it stalls on its first subscribe.
	gate := make(chan struct{})
	bus.mu.Lock()
	bus.gate = gate
	bus.mu.Unlock()
	heartbeat(1)
	<-bus.waiting
	// Two more restarts are observed while it is stalled.
	heartbeat(2)
	heartbeat(3)
	waitFor("three incarnation changes observed", func() bool { return counter("appserver.cluster_restarts") == 3 })
	bus.mu.Lock()
	bus.gate = nil
	bus.mu.Unlock()
	close(gate)

	// Subscribe + first pass + the one pass the two later requests share.
	allAt := func(k int) bool {
		c := bus.counts()
		for _, v := range c {
			if v != k {
				return false
			}
		}
		return len(c) == n
	}
	waitFor("every subscription published by the follow-up pass", func() bool { return allAt(3) })
	time.Sleep(100 * time.Millisecond) // a third pass would run now
	if !allAt(3) {
		t.Fatalf("subscribes after settling = %v, want 3 each: a third pass ran", bus.counts())
	}
	if got := counter("appserver.resubscribes"); got != 2*n {
		t.Fatalf("appserver.resubscribes = %d, want %d (two passes over %d subscriptions)", got, 2*n, n)
	}
}
