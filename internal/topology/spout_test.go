package topology

import (
	"testing"
	"time"
)

// The event-driven spout contract (DESIGN.md §7): a spout with nothing to
// emit parks inside Next, and only a completion or Stop brings it back.

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
	top, err := b.Build(Config{EnableAcking: true})
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

func TestCompletionWakesParkedSpout(t *testing.T) {
	spout := &listSpout{items: values(1)}
	release := make(chan struct{})
	sink := &funcBolt{fn: func(out Collector, tup *Tuple) {
		<-release
		out.Ack(tup)
	}}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("sink", func() Bolt { return sink }, 1).ShuffleGrouping("src")
	// The timeout is out of reach: only the ack itself can complete the tree.
	top, err := b.Build(Config{EnableAcking: true, AckTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	defer top.Stop()

	// Second call of Next: the one item is out and the spout has no input.
	waitFor(t, 5*time.Second, func() bool { return spout.nexts.Load() == 2 }, "spout did not park")
	if n := spout.acks.Load(); n != 0 {
		t.Fatalf("acks = %d before the bolt acked", n)
	}
	close(release)
	waitFor(t, 5*time.Second, func() bool { return spout.acks.Load() == 1 }, "completion did not reach Ack on the parked spout")
	// Woken once for the verdict, then parked again.
	time.Sleep(50 * time.Millisecond)
	if n := spout.nexts.Load(); n > 4 {
		t.Fatalf("Next called %d times around one completion, want a bounded handful", n)
	}
}

func TestStopReturnsWithSpoutsParked(t *testing.T) {
	idle := &listSpout{}
	// Max pending 1 against a bolt that never settles: the second emit parks
	// inside Emit, waiting for a slot that only Stop can release.
	throttled := &listSpout{items: values(2)}
	b := NewBuilder()
	b.SetSpout("idle", func() Spout { return idle }, 1, "key", "n")
	b.SetSpout("throttled", func() Spout { return throttled }, 1, "key", "n")
	b.SetBolt("sink", func() Bolt { return &neverAckBolt{} }, 1).
		ShuffleGrouping("idle").ShuffleGrouping("throttled")
	top, err := b.Build(Config{EnableAcking: true, MaxSpoutPending: 1, AckTimeout: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return idle.nexts.Load() == 1 && throttled.nexts.Load() == 2
	}, "spouts did not park")

	stopped := make(chan struct{})
	go func() {
		top.Stop()
		close(stopped)
	}()
	select {
	case <-stopped:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop did not return with every spout parked")
	}
}
