package topology

import (
	"errors"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// boomBolt panics the first time a given payload value arrives; fresh
// incarnations process it normally. The shared record tracks instances so
// tests can assert the supervisor really built a replacement.
type boomShared struct {
	mu        sync.Mutex
	instances int
	incs      []int
	seen      []string
	panicked  bool
}

type boomBolt struct {
	shared *boomShared
	out    Collector
}

func (b *boomBolt) Prepare(ctx *BoltContext, out Collector) error {
	b.out = out
	b.shared.mu.Lock()
	b.shared.instances++
	b.shared.incs = append(b.shared.incs, ctx.Incarnation)
	b.shared.mu.Unlock()
	return nil
}

func (b *boomBolt) Execute(t *Tuple) {
	v := t.Values[0].(string)
	b.shared.mu.Lock()
	if v == "boom" && !b.shared.panicked {
		b.shared.panicked = true
		b.shared.mu.Unlock()
		panic("injected bolt crash")
	}
	b.shared.seen = append(b.shared.seen, v)
	b.shared.mu.Unlock()
}

func (b *boomBolt) Cleanup() {}

func findStats(t *testing.T, top *Topology, comp string, taskID int) TaskStats {
	t.Helper()
	for _, s := range top.Stats() {
		if s.Component == comp && s.TaskID == taskID {
			return s
		}
	}
	t.Fatalf("no stats for %s[%d]", comp, taskID)
	return TaskStats{}
}

func TestSupervisorRestartsPanickingBolt(t *testing.T) {
	shared := &boomShared{}
	spout := &listSpout{items: []Values{{"a"}, {"boom"}, {"b"}}}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "v")
	b.SetBolt("sink", func() Bolt { return &boomBolt{shared: shared} }, 1).ShuffleGrouping("src")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	// The panic drops the in-flight tuple, and the replacement instance
	// carries on with the rest of the queue.
	waitFor(t, 5*time.Second, func() bool {
		shared.mu.Lock()
		defer shared.mu.Unlock()
		return len(shared.seen) == 2
	}, "restarted bolt did not process the tuple behind the crash")
	if shared.seen[0] != "a" || shared.seen[1] != "b" {
		t.Fatalf("seen = %v, want [a b]", shared.seen)
	}

	s := findStats(t, top, "sink", 0)
	if s.Restarts != 1 || s.Panics != 1 || s.Dead || s.Failed != 1 || s.Executed != 3 {
		t.Fatalf("stats = %+v, want Restarts=1 Panics=1 Dead=false Failed=1 Executed=3", s)
	}
	if !strings.Contains(s.LastPanic, "injected bolt crash") {
		t.Fatalf("LastPanic = %q, want the recovered panic value", s.LastPanic)
	}
	if !strings.Contains(s.LastPanic, "goroutine") {
		t.Fatalf("LastPanic = %q, want a stack trace", s.LastPanic)
	}
	shared.mu.Lock()
	instances, incs := shared.instances, append([]int(nil), shared.incs...)
	shared.mu.Unlock()
	if instances != 2 {
		t.Fatalf("instances = %d, want 2 (fresh bolt after restart)", instances)
	}
	if incs[0] != 0 || incs[1] != 1 {
		t.Fatalf("incarnations = %v, want [0 1]", incs)
	}
}

// alwaysPanicBolt crashes on every tuple.
type alwaysPanicBolt struct{}

func (b *alwaysPanicBolt) Prepare(ctx *BoltContext, out Collector) error { return nil }
func (b *alwaysPanicBolt) Execute(t *Tuple)                              { panic("hopeless") }
func (b *alwaysPanicBolt) Cleanup()                                      {}

func TestSupervisorMarksTaskDeadAfterBoundedRestarts(t *testing.T) {
	const n = 20
	spout := &listSpout{items: values(n)}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("sink", func() Bolt { return &alwaysPanicBolt{} }, 1).ShuffleGrouping("src")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	// Every tuple must be counted as failed — first via panic recovery, then
	// one per tuple via the dead task's drain — and the spout must never
	// deadlock on a queue nobody reads.
	waitFor(t, 5*time.Second, func() bool {
		return findStats(t, top, "sink", 0).Failed == n && spout.returns.Load() == n
	}, "tuples stuck behind a dead task")
	s := findStats(t, top, "sink", 0)
	if !s.Dead || s.Restarts != 3 || s.Panics != 4 {
		t.Fatalf("stats = %+v, want Dead=true Restarts=3 Panics=4", s)
	}
}

// crashySpout panics mid-run once, then (as a fresh instance sharing
// state) continues from where the crashed one stopped.
type crashySpout struct {
	shared *crashySpoutShared
	ctx    *SpoutContext
}

type crashySpoutShared struct {
	mu       sync.Mutex
	next     int
	n        int
	panicked bool
	opens    int
}

func (s *crashySpout) Open(ctx *SpoutContext) error {
	s.ctx = ctx
	s.shared.mu.Lock()
	s.shared.opens++
	s.shared.mu.Unlock()
	return nil
}

func (s *crashySpout) Next() {
	s.shared.mu.Lock()
	if s.shared.next == 2 && !s.shared.panicked {
		s.shared.panicked = true
		s.shared.mu.Unlock()
		panic("spout crash")
	}
	if s.shared.next >= s.shared.n {
		s.shared.mu.Unlock()
		<-s.ctx.Done
		return
	}
	v := s.shared.next
	s.shared.next++
	s.shared.mu.Unlock()
	s.ctx.Emit(Values{v})
}

func (s *crashySpout) Close() {}

func TestSupervisorRestartsPanickingSpout(t *testing.T) {
	shared := &crashySpoutShared{n: 5}
	sink := &collectBolt{}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return &crashySpout{shared: shared} }, 1, "v")
	b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("src")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	waitFor(t, 5*time.Second, func() bool { return len(sink.snapshot()) == 5 }, "restarted spout did not finish emitting")
	s := findStats(t, top, "src", 0)
	if s.Restarts != 1 || s.Panics != 1 || s.Dead {
		t.Fatalf("spout stats = %+v, want Restarts=1 Panics=1 Dead=false", s)
	}
	shared.mu.Lock()
	opens := shared.opens
	shared.mu.Unlock()
	if opens != 2 {
		t.Fatalf("opens = %d, want 2 (fresh spout instance)", opens)
	}
}

// lifecycleSpout parks in Next and counts Open and Close; with fail set, Open
// errors instead.
type lifecycleSpout struct {
	fail           bool
	opened, closed *atomic.Int32
	ctx            *SpoutContext
}

func (s *lifecycleSpout) Open(ctx *SpoutContext) error {
	if s.fail {
		return errors.New("source unavailable")
	}
	s.ctx = ctx
	s.opened.Add(1)
	return nil
}
func (s *lifecycleSpout) Next()  { <-s.ctx.Done }
func (s *lifecycleSpout) Close() { s.closed.Add(1) }

type lifecycleBolt struct{ prepared, cleaned *atomic.Int32 }

func (b *lifecycleBolt) Prepare(*BoltContext, Collector) error { b.prepared.Add(1); return nil }
func (b *lifecycleBolt) Execute(*Tuple)                        {}
func (b *lifecycleBolt) Cleanup()                              { b.cleaned.Add(1) }

// TestFailedStartReleasesWhatItStarted: when a later spout's Open fails,
// Start must not leave the earlier tasks running with nobody able to stop
// them — it stops their goroutines, closes the spouts it opened, cleans up
// the bolts it prepared, and leaves Stop a harmless no-op.
func TestFailedStartReleasesWhatItStarted(t *testing.T) {
	before := runtime.NumGoroutine()
	var opened, closed, prepared, cleaned atomic.Int32
	b := NewBuilder()
	b.SetSpout("first", func() Spout { return &lifecycleSpout{opened: &opened, closed: &closed} }, 1, "v")
	b.SetSpout("second", func() Spout { return &lifecycleSpout{fail: true, opened: &opened, closed: &closed} }, 1, "v")
	b.SetBolt("sink", func() Bolt { return &lifecycleBolt{prepared: &prepared, cleaned: &cleaned} }, 2).
		ShuffleGrouping("first").ShuffleGrouping("second")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	err = top.Start()
	if err == nil || !strings.Contains(err.Error(), "open second[0]") {
		t.Fatalf("Start = %v, want the second spout's open error", err)
	}
	check := func(when string) {
		t.Helper()
		if opened.Load() != 1 || closed.Load() != 1 {
			t.Fatalf("%s: opened=%d closed=%d, want the one opened spout closed once", when, opened.Load(), closed.Load())
		}
		if prepared.Load() != 2 || cleaned.Load() != 2 {
			t.Fatalf("%s: prepared=%d cleaned=%d, want both bolts cleaned up once", when, prepared.Load(), cleaned.Load())
		}
	}
	check("after failed Start")
	// Start waited for the task loops; give their goroutines a moment to
	// finish exiting before counting.
	waitFor(t, 2*time.Second, func() bool { return runtime.NumGoroutine() <= before },
		"task goroutines survived the failed Start")
	top.Stop()
	check("after Stop")
	if err := top.Start(); err == nil {
		t.Fatal("Start accepted after a failed Start")
	}
}
