package topology

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hashSink keeps RouteHash calls from being optimized away.
var hashSink uint64

// TestRouteHashNoAllocs pins the zero-allocation contract of the routing
// hash for the key types that appear on the hot path. A type that falls
// back to fmt.Sprint would show up here immediately.
func TestRouteHashNoAllocs(t *testing.T) {
	cases := []struct {
		name string
		vals Values
		idx  []int
	}{
		{"string", Values{"user:12345", 7}, []int{0}},
		{"uint64", Values{uint64(987654321), 7}, []int{0}},
		{"int", Values{42, 7}, []int{0}},
		{"bytes", Values{[]byte("user:12345"), 7}, []int{0}},
		{"multi", Values{"tenant-a", uint64(99), int64(-3)}, []int{0, 1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if n := testing.AllocsPerRun(1000, func() {
				hashSink += RouteHash(tc.vals, tc.idx)
			}); n != 0 {
				t.Fatalf("RouteHash(%s) allocates %.1f per call, want 0", tc.name, n)
			}
		})
	}
}

// keepBolt retains what the ownership contract allows — a tuple's Values —
// and records which *Tuple carried each, forwarding the values downstream.
type keepBolt struct {
	out    Collector
	mu     sync.Mutex
	kept   []any
	tuples map[*Tuple]int
}

func (b *keepBolt) Prepare(ctx *BoltContext, out Collector) error { b.out = out; return nil }
func (b *keepBolt) Cleanup()                                      {}
func (b *keepBolt) Execute(t *Tuple) {
	b.mu.Lock()
	b.kept = append(b.kept, t.Values[0])
	b.tuples[t]++
	b.mu.Unlock()
	b.out.Emit(t.Values)
}

// TestTupleRecycling pins the ownership contract: a *Tuple is valid for the
// duration of Execute, Values may be kept. The runtime recycles the tuple when
// Execute returns — values kept by the bolt and forwarded downstream stay
// intact while the *Tuple is reused — and a tuple in flight at a panic is
// recycled exactly once, by the supervisor.
func TestTupleRecycling(t *testing.T) {
	t.Run("kept values outlive the reused tuple", func(t *testing.T) {
		const n = 500
		items := make([]Values, n)
		for i := range items {
			items[i] = Values{&[1]int{i}}
		}
		keep := &keepBolt{tuples: map[*Tuple]int{}}
		sink := &collectBolt{}
		b := NewBuilder()
		b.SetSpout("src", func() Spout { return &listSpout{items: items} }, 1, "v")
		b.SetBolt("keep", func() Bolt { return keep }, 1, "v").ShuffleGrouping("src")
		b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("keep")
		top, err := b.Build(Config{QueueSize: 4})
		if err != nil {
			t.Fatal(err)
		}
		if err := top.Start(); err != nil {
			t.Fatal(err)
		}
		defer top.Stop()
		waitFor(t, 5*time.Second, func() bool { return len(sink.snapshot()) == n }, "tuples delivered")
		keep.mu.Lock()
		defer keep.mu.Unlock()
		for i, v := range keep.kept {
			if got := v.(*[1]int)[0]; got != i {
				t.Fatalf("kept value %d reads %d after its tuple was recycled", i, got)
			}
		}
		for i, v := range sink.snapshot() {
			if got := v[0].(*[1]int)[0]; got != i {
				t.Fatalf("forwarded value %d reads %d downstream", i, got)
			}
		}
		if len(keep.tuples) == n {
			t.Fatalf("%d tuples carried %d deliveries: the pool never reused one", len(keep.tuples), n)
		}
	})

	t.Run("a panicking Execute recycles its tuple once", func(t *testing.T) {
		// One P: the pool's per-P cache is then the whole pool, so draining it
		// below sees every Put the task goroutine made.
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		var crashed atomic.Pointer[Tuple]
		sink := &funcBolt{fn: func(_ Collector, tup *Tuple) {
			crashed.Store(tup)
			panic("in flight")
		}}
		b := NewBuilder()
		b.SetSpout("src", func() Spout { return &listSpout{items: values(1)} }, 1, "key", "n")
		b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("src")
		top, err := b.Build(Config{})
		if err != nil {
			t.Fatal(err)
		}
		if err := top.Start(); err != nil {
			t.Fatal(err)
		}
		waitFor(t, 5*time.Second, func() bool { return findStats(t, top, "sink", 0).Restarts == 1 }, "bolt not restarted")
		top.Stop()
		if s := findStats(t, top, "sink", 0); s.Failed != 1 || s.Executed != 1 {
			t.Fatalf("stats = %+v, want Failed=1 Executed=1", s)
		}
		tup := crashed.Load()
		if tup.Component != "" || tup.Stream != "" || tup.Values != nil || tup.fields != nil {
			t.Fatalf("in-flight tuple not reset by the supervisor: %+v", tup)
		}
		puts := 0
		for i := 0; i < 64; i++ {
			if tuplePool.Get().(*Tuple) == tup {
				puts++
			}
		}
		if puts > 1 {
			t.Fatalf("in-flight tuple came out of the pool %d times: recycled more than once", puts)
		}
	})
}
