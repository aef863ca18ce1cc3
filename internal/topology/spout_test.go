package topology

import (
	"testing"
	"time"
)

// The event-driven spout contract (DESIGN.md §7): a spout with nothing to
// emit parks inside Next, and only Stop brings it back.

func TestIdleSpoutsDoNotWakeUp(t *testing.T) {
	const tasks = 3
	var spouts []*listSpout
	b := NewBuilder()
	b.SetSpout("src", func() Spout {
		s := &listSpout{}
		spouts = append(spouts, s)
		return s
	}, tasks, "key", "n")
	b.SetBolt("sink", func() Bolt { return &collectBolt{} }, 1).ShuffleGrouping("src")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	defer top.Stop()

	time.Sleep(200 * time.Millisecond)
	var nexts uint64
	for _, s := range spouts {
		nexts += s.nexts.Load()
	}
	// One call per task, parked ever since; the poll-and-nap runtime made
	// about one per millisecond and task.
	if nexts > tasks {
		t.Fatalf("idle topology called Next %d times in 200ms, want %d (one parked call per spout task)", nexts, tasks)
	}
}

func TestStopReturnsWithSpoutsParked(t *testing.T) {
	idle := &listSpout{}
	// A queue of one behind a bolt stuck in Execute: the first tuple is being
	// executed, the second fills the queue, and the third emit parks inside
	// Emit on back-pressure that only Stop can release.
	blocked := &listSpout{items: values(3)}
	release := make(chan struct{})
	sink := &funcBolt{fn: func(Collector, *Tuple) { <-release }}
	b := NewBuilder()
	b.SetSpout("idle", func() Spout { return idle }, 1, "key", "n")
	b.SetSpout("blocked", func() Spout { return blocked }, 1, "key", "n")
	b.SetBolt("sink", func() Bolt { return sink }, 1).
		ShuffleGrouping("idle").ShuffleGrouping("blocked")
	top, err := b.Build(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return idle.nexts.Load() == 1 && blocked.nexts.Load() == 3
	}, "spouts did not park")

	stopped := make(chan struct{})
	go func() {
		top.Stop()
		close(stopped)
	}()
	// Both spouts return from Next while the bolt still holds its tuple: it
	// is Stop that unparked them, not the queue draining.
	waitFor(t, 2*time.Second, func() bool {
		return idle.returns.Load() == 1 && blocked.returns.Load() == 3
	}, "Stop did not unpark the spouts")
	close(release)
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return with every spout parked")
	}
}
