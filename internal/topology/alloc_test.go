package topology

import (
	"runtime"
	"sync"
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

// TestDeliverNoAllocs pins the routing claim of DESIGN.md §7: fanOut, the
// queue hand-off and execute move a tuple to every grouping's tasks without
// allocating. The topology is built but not started, so one goroutine plays
// the emitter and every receiving task.
func TestDeliverNoAllocs(t *testing.T) {
	executed := 0
	count := &funcBolt{fn: func(Collector, *Tuple) { executed++ }}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return &listSpout{} }, 1, "key", "n")
	b.SetBolt("shuffle", func() Bolt { return count }, 2).ShuffleGrouping("src")
	b.SetBolt("fields", func() Bolt { return count }, 2).FieldsGrouping("src", "key")
	b.SetBolt("broadcast", func() Bolt { return count }, 2).BroadcastGrouping("src")
	b.SetBolt("direct", func() Bolt { return count }, 2).DirectGrouping("src")
	top, err := b.Build(4)
	if err != nil {
		t.Fatal(err)
	}
	src := top.comps["src"]
	var tasks []*task
	for _, comp := range top.comps {
		if comp != src {
			tasks = append(tasks, comp.tasks...)
		}
	}
	vals := []Values{{"user:12345", 1}, {uint64(987654321), 2}, {"tenant-a", 3}}
	const runs = 1000
	i := 0
	if n := testing.AllocsPerRun(runs, func() {
		src.fanOut(DefaultStream, vals[i%len(vals)], i%2)
		i++
		for _, tk := range tasks {
			for len(tk.in) > 0 {
				tk.execute(<-tk.in)
			}
		}
	}); n != 0 {
		t.Fatalf("fanOut → deliver → execute allocates %.1f per emit, want 0", n)
	}
	// Each emit reaches one shuffle, one fields, both broadcast and one
	// direct task; AllocsPerRun adds one warm-up run.
	if want := 5 * (runs + 1); executed != want {
		t.Fatalf("executed %d tuples, want %d", executed, want)
	}
}

// keepBolt retains what the ownership contract allows — a tuple's Values —
// and forwards them downstream.
type keepBolt struct {
	out  Collector
	mu   sync.Mutex
	kept []any
}

func (b *keepBolt) Prepare(ctx *BoltContext, out Collector) error { b.out = out; return nil }
func (b *keepBolt) Cleanup()                                      {}
func (b *keepBolt) Execute(t *Tuple) {
	b.mu.Lock()
	b.kept = append(b.kept, t.Values[0])
	b.mu.Unlock()
	b.out.Emit(t.Values)
}

// chanSpout emits whatever arrives on in, so the test holds no reference to
// an emitted payload.
type chanSpout struct {
	in  chan Values
	ctx *SpoutContext
}

func (s *chanSpout) Open(ctx *SpoutContext) error { s.ctx = ctx; return nil }
func (s *chanSpout) Close()                       {}
func (s *chanSpout) Next() {
	select {
	case v := <-s.in:
		s.ctx.Emit(v)
	case <-s.ctx.Done:
	}
}

// payload is large enough to bypass the tiny allocator, whose shared blocks
// would delay its finalizer.
type payload struct{ b [64]byte }

// sendPayload emits one tuple carrying a fresh payload and returns a channel
// that closes once the payload has been garbage collected.
//
//go:noinline
func sendPayload(in chan<- Values) <-chan struct{} {
	collected := make(chan struct{})
	p := &payload{}
	runtime.SetFinalizer(p, func(*payload) { close(collected) })
	in <- Values{p}
	return collected
}

// TestTupleOwnership pins the ownership contract: a *Tuple is valid for the
// duration of Execute; Values may be kept. Values a bolt keeps or forwards
// stay intact, the runtime keeps nothing once Execute returns or panics, and
// a tuple in flight at a panic is counted once.
func TestTupleOwnership(t *testing.T) {
	t.Run("kept values outlive Execute", func(t *testing.T) {
		const n = 500
		items := make([]Values, n)
		for i := range items {
			items[i] = Values{&[1]int{i}}
		}
		keep := &keepBolt{}
		sink := &collectBolt{}
		b := NewBuilder()
		b.SetSpout("src", func() Spout { return &listSpout{items: items} }, 1, "v")
		b.SetBolt("keep", func() Bolt { return keep }, 1, "v").ShuffleGrouping("src")
		b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("keep")
		top, err := b.Build(4)
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
				t.Fatalf("kept value %d reads %d after Execute returned", i, got)
			}
		}
		for i, v := range sink.snapshot() {
			if got := v[0].(*[1]int)[0]; got != i {
				t.Fatalf("forwarded value %d reads %d downstream", i, got)
			}
		}
	})

	// run starts src → sink with fn as the sink's Execute and returns the
	// spout's input.
	run := func(t *testing.T, fn func(Collector, *Tuple)) (*Topology, chan Values) {
		in := make(chan Values)
		b := NewBuilder()
		b.SetSpout("src", func() Spout { return &chanSpout{in: in} }, 1, "v")
		b.SetBolt("sink", func() Bolt { return &funcBolt{fn: fn} }, 1).ShuffleGrouping("src")
		top, err := b.Build(0)
		if err != nil {
			t.Fatal(err)
		}
		if err := top.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(top.Stop)
		return top, in
	}

	t.Run("nothing outlives Execute", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			fn   func(Collector, *Tuple)
			done func(TaskStats) bool
		}{
			{"returns", func(Collector, *Tuple) {}, func(s TaskStats) bool { return s.Executed == 1 }},
			{"panics", func(Collector, *Tuple) { panic("in flight") }, func(s TaskStats) bool { return s.Restarts == 1 }},
		} {
			t.Run(tc.name, func(t *testing.T) {
				top, in := run(t, tc.fn)
				collected := sendPayload(in)
				waitFor(t, 5*time.Second, func() bool { return tc.done(findStats(t, top, "sink", 0)) }, "tuple not executed")
				waitFor(t, 5*time.Second, func() bool {
					runtime.GC()
					select {
					case <-collected:
						return true
					default:
						return false
					}
				}, "the runtime still holds the payload after Execute "+tc.name)
			})
		}
	})

	t.Run("a panic is counted once", func(t *testing.T) {
		top, in := run(t, func(Collector, *Tuple) { panic("in flight") })
		in <- Values{1}
		waitFor(t, 5*time.Second, func() bool { return findStats(t, top, "sink", 0).Restarts == 1 }, "bolt not restarted")
		top.Stop()
		if s := findStats(t, top, "sink", 0); s.Failed != 1 || s.Executed != 1 {
			t.Fatalf("stats = %+v, want Failed=1 Executed=1", s)
		}
	})
}
