package topology

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// listSpout emits a fixed list of values, then parks until the topology
// stops.
type listSpout struct {
	items   []Values
	next    int
	ctx     *SpoutContext
	nexts   atomic.Uint64 // calls of Next: one per emitted item, then one parked
	returns atomic.Uint64 // calls of Next that returned
}

func (s *listSpout) Open(ctx *SpoutContext) error {
	s.ctx = ctx
	return nil
}

func (s *listSpout) Next() {
	s.nexts.Add(1)
	defer s.returns.Add(1)
	if s.next >= len(s.items) {
		<-s.ctx.Done
		return
	}
	v := s.items[s.next]
	s.next++
	s.ctx.Emit(v)
}

func (s *listSpout) Close() {}

// collectBolt records every tuple it sees.
type collectBolt struct {
	mu   sync.Mutex
	seen []Values
	task int
	out  Collector
	// forward re-emits tuples downstream when set.
	forward bool
}

func (b *collectBolt) Prepare(ctx *BoltContext, out Collector) error {
	b.task = ctx.TaskID
	b.out = out
	return nil
}

func (b *collectBolt) Execute(t *Tuple) {
	b.mu.Lock()
	b.seen = append(b.seen, t.Values)
	b.mu.Unlock()
	if b.forward {
		b.out.Emit(t.Values)
	}
}

func (b *collectBolt) Cleanup() {}

func (b *collectBolt) snapshot() []Values {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]Values(nil), b.seen...)
}

func values(n int) []Values {
	out := make([]Values, n)
	for i := range out {
		out[i] = Values{fmt.Sprintf("k%d", i%4), i}
	}
	return out
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatal("timeout: " + msg)
}

func TestBuilderValidation(t *testing.T) {
	mkSpout := func() Spout { return &listSpout{} }
	mkBolt := func() Bolt { return &collectBolt{} }

	cases := []struct {
		name  string
		build func(b *Builder)
	}{
		{"empty", func(b *Builder) {}},
		{"no spout", func(b *Builder) {
			b.SetBolt("b", mkBolt, 1).ShuffleGrouping("b")
		}},
		{"dup id", func(b *Builder) {
			b.SetSpout("s", mkSpout, 1)
			b.SetSpout("s", mkSpout, 1)
		}},
		{"zero parallelism", func(b *Builder) {
			b.SetSpout("s", mkSpout, 0)
		}},
		{"bolt without grouping", func(b *Builder) {
			b.SetSpout("s", mkSpout, 1)
			b.SetBolt("b", mkBolt, 1)
		}},
		{"unknown upstream", func(b *Builder) {
			b.SetSpout("s", mkSpout, 1)
			b.SetBolt("b", mkBolt, 1).ShuffleGrouping("nope")
		}},
		{"fields grouping without fields", func(b *Builder) {
			b.SetSpout("s", mkSpout, 1, "k")
			b.SetBolt("b", mkBolt, 1).FieldsGrouping("s")
		}},
		{"fields grouping on undeclared field", func(b *Builder) {
			b.SetSpout("s", mkSpout, 1, "k")
			b.SetBolt("b", mkBolt, 1).FieldsGrouping("s", "missing")
		}},
		{"empty id", func(b *Builder) {
			b.SetSpout("", mkSpout, 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			b := NewBuilder()
			c.build(b)
			if _, err := b.Build(0); err == nil {
				t.Fatal("invalid topology accepted")
			}
		})
	}
}

func runSimple(t *testing.T, parallelism int, grouping func(*BoltDecl) *BoltDecl, n int) (*Topology, *listSpout, []*collectBolt) {
	t.Helper()
	spout := &listSpout{items: values(n)}
	var bolts []*collectBolt
	var boltMu sync.Mutex
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	grouping(b.SetBolt("sink", func() Bolt {
		cb := &collectBolt{}
		boltMu.Lock()
		bolts = append(bolts, cb)
		boltMu.Unlock()
		return cb
	}, parallelism))
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)
	return top, spout, bolts
}

func totalSeen(bolts []*collectBolt) int {
	n := 0
	for _, b := range bolts {
		n += len(b.snapshot())
	}
	return n
}

func TestShuffleDeliversAll(t *testing.T) {
	const n = 200
	_, _, bolts := runSimple(t, 3, func(d *BoltDecl) *BoltDecl { return d.ShuffleGrouping("src") }, n)
	waitFor(t, 2*time.Second, func() bool { return totalSeen(bolts) == n }, "all tuples delivered")
	// Shuffle should spread work across tasks.
	for i, b := range bolts {
		if len(b.snapshot()) == 0 {
			t.Errorf("task %d received nothing under shuffle grouping", i)
		}
	}
}

func TestFieldsGroupingPartitionsByKey(t *testing.T) {
	const n = 200
	_, _, bolts := runSimple(t, 4, func(d *BoltDecl) *BoltDecl { return d.FieldsGrouping("src", "key") }, n)
	waitFor(t, 2*time.Second, func() bool { return totalSeen(bolts) == n }, "all tuples delivered")
	// Every distinct key must land on exactly one task.
	owner := map[string]int{}
	for ti, b := range bolts {
		for _, v := range b.snapshot() {
			key := v[0].(string)
			if prev, seen := owner[key]; seen && prev != ti {
				t.Fatalf("key %q delivered to tasks %d and %d", key, prev, ti)
			}
			owner[key] = ti
		}
	}
	if len(owner) != 4 {
		t.Fatalf("expected 4 distinct keys, saw %d", len(owner))
	}
}

func TestBroadcastGroupingReplicates(t *testing.T) {
	const n = 50
	_, _, bolts := runSimple(t, 3, func(d *BoltDecl) *BoltDecl { return d.BroadcastGrouping("src") }, n)
	waitFor(t, 2*time.Second, func() bool { return totalSeen(bolts) == 3*n }, "broadcast delivered to all tasks")
	for i, b := range bolts {
		if got := len(b.snapshot()); got != n {
			t.Errorf("task %d saw %d tuples, want %d", i, got, n)
		}
	}
}

func TestTupleGet(t *testing.T) {
	tup := &Tuple{src: &source{fields: []string{"key", "n"}}, Values: Values{"a", 7}}
	if v, ok := tup.Get("n"); !ok || v != 7 {
		t.Fatalf("Get(n) = %v, %v", v, ok)
	}
	if _, ok := tup.Get("missing"); ok {
		t.Fatal("Get on undeclared field succeeded")
	}
}

type funcBolt struct {
	fn  func(out Collector, t *Tuple)
	out Collector
}

func (b *funcBolt) Prepare(ctx *BoltContext, out Collector) error { b.out = out; return nil }
func (b *funcBolt) Execute(t *Tuple)                              { b.fn(b.out, t) }
func (b *funcBolt) Cleanup()                                      {}

func TestEmitDirect(t *testing.T) {
	spout := &listSpout{items: values(20)}
	var sinks []*collectBolt
	var mu sync.Mutex
	router := &funcBolt{}
	router.fn = func(out Collector, tup *Tuple) {
		// Route everything to task 2 explicitly.
		out.EmitDirect(2, tup.Values)
	}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("router", func() Bolt { return router }, 1, "key", "n").ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt {
		cb := &collectBolt{}
		mu.Lock()
		sinks = append(sinks, cb)
		mu.Unlock()
		return cb
	}, 4).DirectGrouping("router")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = top.Start()
	defer top.Stop()
	waitFor(t, 2*time.Second, func() bool { return totalSeen(sinks) == 20 }, "direct tuples delivered")
	for _, s := range sinks {
		if s.task != 2 && len(s.snapshot()) > 0 {
			t.Fatalf("task %d received direct tuples meant for task 2", s.task)
		}
	}
}

func TestStatsAndDoubleLifecycle(t *testing.T) {
	// Two spout tasks, each its own instance with half of the input.
	var mkMu sync.Mutex
	made := 0
	sink := &collectBolt{}
	b := NewBuilder()
	b.SetSpout("src", func() Spout {
		mkMu.Lock()
		defer mkMu.Unlock()
		made++
		return &listSpout{items: values(5)}
	}, 2, "key", "n")
	b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("src")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err == nil {
		t.Fatal("double Start accepted")
	}
	if made != 2 {
		t.Fatalf("spout factory invoked %d times, want 2", made)
	}
	waitFor(t, 2*time.Second, func() bool { return len(sink.snapshot()) == 10 }, "delivered")
	stats := top.Stats()
	if len(stats) != 3 { // 2 spout tasks + 1 bolt task
		t.Fatalf("Stats returned %d entries, want 3", len(stats))
	}
	var executed uint64
	for _, s := range stats {
		if s.Component == "sink" {
			executed += s.Executed
		}
	}
	if executed != 10 {
		t.Fatalf("sink executed = %d, want 10", executed)
	}
	top.Stop()
	top.Stop() // idempotent
}

func TestMultipleSubscribersBothReceive(t *testing.T) {
	const n = 30
	spout := &listSpout{items: values(n)}
	a := &collectBolt{}
	c := &collectBolt{}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("a", func() Bolt { return a }, 1).ShuffleGrouping("src")
	b.SetBolt("c", func() Bolt { return c }, 1).ShuffleGrouping("src")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = top.Start()
	defer top.Stop()
	waitFor(t, 2*time.Second, func() bool {
		return len(a.snapshot()) == n && len(c.snapshot()) == n
	}, "both subscribers received every tuple")
}
