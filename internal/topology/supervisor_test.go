package topology

import (
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
	b.out.Ack(t)
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
	spout := &listSpout{items: []Values{{"a"}, {"boom"}, {"b"}}, replay: true}
	var restartComp atomic.Value
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "v")
	b.SetBolt("sink", func() Bolt { return &boomBolt{shared: shared} }, 1).ShuffleGrouping("src")
	top, err := b.Build(Config{
		EnableAcking: true,
		AckTimeout:   100 * time.Millisecond,
		OnTaskRestart: func(component string, taskID int) {
			restartComp.Store(component)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	// The panic must fail the in-flight ledger (spout replay), and the
	// replacement instance must then process the replayed tuple.
	waitFor(t, 5*time.Second, func() bool {
		shared.mu.Lock()
		defer shared.mu.Unlock()
		boom := false
		for _, v := range shared.seen {
			if v == "boom" {
				boom = true
			}
		}
		return boom && len(shared.seen) >= 3
	}, "replayed tuple not processed by restarted bolt")

	s := findStats(t, top, "sink", 0)
	if s.Restarts != 1 || s.Panics != 1 || s.Dead {
		t.Fatalf("stats = %+v, want Restarts=1 Panics=1 Dead=false", s)
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
	if got, _ := restartComp.Load().(string); got != "sink" {
		t.Fatalf("OnTaskRestart component = %q, want \"sink\"", got)
	}
	if spout.fails.Load() == 0 {
		t.Fatal("panic did not fail the in-flight tuple's ledger")
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
	top, err := b.Build(Config{
		EnableAcking:    true,
		AckTimeout:      200 * time.Millisecond,
		MaxTaskRestarts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	// Every tuple must come back failed — first via panic recovery, then
	// via the dead task's drain — and the spout must never deadlock on a
	// queue nobody reads.
	waitFor(t, 5*time.Second, func() bool { return spout.fails.Load() == n }, "tuples stuck behind a dead task")
	s := findStats(t, top, "sink", 0)
	if !s.Dead || s.Restarts != 2 || s.Panics != 3 {
		t.Fatalf("stats = %+v, want Dead=true Restarts=2 Panics=3", s)
	}
}

// ackThenPanicBolt acks its tuple and then panics, exactly once.
type ackThenPanicBolt struct {
	shared *boomShared
	out    Collector
}

func (b *ackThenPanicBolt) Prepare(ctx *BoltContext, out Collector) error {
	b.out = out
	b.shared.mu.Lock()
	b.shared.instances++
	b.shared.mu.Unlock()
	return nil
}

func (b *ackThenPanicBolt) Execute(t *Tuple) {
	b.shared.mu.Lock()
	b.shared.seen = append(b.shared.seen, t.Values[0].(string))
	first := !b.shared.panicked
	b.shared.panicked = true
	b.shared.mu.Unlock()
	b.out.Ack(t)
	if first {
		panic("after ack")
	}
}

func (b *ackThenPanicBolt) Cleanup() {}

// TestSupervisorDoesNotFailSettledTuple: a bolt that acks and then panics
// must not have its (already recycled, possibly reused) tuple failed by
// the supervisor — the spout sees acks only.
func TestSupervisorDoesNotFailSettledTuple(t *testing.T) {
	shared := &boomShared{}
	spout := &listSpout{items: []Values{{"a"}, {"b"}, {"c"}}}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "v")
	b.SetBolt("sink", func() Bolt { return &ackThenPanicBolt{shared: shared} }, 1).ShuffleGrouping("src")
	top, err := b.Build(Config{EnableAcking: true, AckTimeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	waitFor(t, 5*time.Second, func() bool { return spout.acks.Load() == 3 }, "acks missing")
	if f := spout.fails.Load(); f != 0 {
		t.Fatalf("settled tuple was failed by the supervisor: fails = %d", f)
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
		s.ctx.Park()
		return
	}
	v := s.shared.next
	s.shared.next++
	s.shared.mu.Unlock()
	s.ctx.Emit(Values{v})
}

func (s *crashySpout) Ack(id MsgID)  {}
func (s *crashySpout) Fail(id MsgID) {}
func (s *crashySpout) Close()        {}

func TestSupervisorRestartsPanickingSpout(t *testing.T) {
	shared := &crashySpoutShared{n: 5}
	sink := &collectBolt{}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return &crashySpout{shared: shared} }, 1, "v")
	b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("src")
	top, err := b.Build(Config{})
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

// neverAckBolt swallows tuples without settling them, leaving their
// ledgers open.
type neverAckBolt struct{}

func (b *neverAckBolt) Prepare(ctx *BoltContext, out Collector) error { return nil }
func (b *neverAckBolt) Execute(t *Tuple)                              {}
func (b *neverAckBolt) Cleanup()                                      {}

// emitOnceThenPanicSpout emits one anchored tuple, then panics forever.
type emitOnceThenPanicSpout struct {
	shared *crashySpoutShared
	ctx    *SpoutContext
}

func (s *emitOnceThenPanicSpout) Open(ctx *SpoutContext) error {
	s.ctx = ctx
	return nil
}

func (s *emitOnceThenPanicSpout) Next() {
	s.shared.mu.Lock()
	emitted := s.shared.next > 0
	s.shared.next++
	s.shared.mu.Unlock()
	if emitted {
		panic("spout gone")
	}
	s.ctx.Emit(Values{"orphan"})
}

func (s *emitOnceThenPanicSpout) Ack(id MsgID)  {}
func (s *emitOnceThenPanicSpout) Fail(id MsgID) {}
func (s *emitOnceThenPanicSpout) Close()        {}

// TestAckerDropsLedgersOfStoppedSpout: a ledger whose spout task died must
// be deleted by the sweep instead of replayed into a queue nobody drains.
func TestAckerDropsLedgersOfStoppedSpout(t *testing.T) {
	shared := &crashySpoutShared{}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return &emitOnceThenPanicSpout{shared: shared} }, 1, "v")
	b.SetBolt("sink", func() Bolt { return &neverAckBolt{} }, 1).ShuffleGrouping("src")
	top, err := b.Build(Config{
		EnableAcking:    true,
		AckTimeout:      2 * time.Second, // ledger must go via halted cleanup, not expiry
		MaxTaskRestarts: -1,              // first panic kills the spout
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(top.Stop)

	waitFor(t, 5*time.Second, func() bool {
		return findStats(t, top, "src", 0).Dead
	}, "spout not marked dead")
	waitFor(t, 5*time.Second, func() bool {
		return top.acker.pendingCount() == 0
	}, "orphaned ledger not deleted by sweep")
}
