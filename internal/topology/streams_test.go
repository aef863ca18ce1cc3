package topology

import (
	"sync"
	"testing"
	"time"
)

// splitterBolt routes even numbers to the default stream and odd numbers to
// a named "odd" stream.
type splitterBolt struct {
	out Collector
}

func (s *splitterBolt) Prepare(ctx *BoltContext, out Collector) error {
	s.out = out
	return nil
}

func (s *splitterBolt) Execute(t *Tuple) {
	n := t.Values[1].(int)
	if n%2 == 0 {
		s.out.Emit(t.Values)
	} else {
		s.out.EmitStream("odd", t.Values)
	}
}

func (s *splitterBolt) Cleanup() {}

func TestNamedStreamsRouteIndependently(t *testing.T) {
	const n = 40
	spout := &listSpout{items: values(n)}
	evens := &collectBolt{}
	odds := &collectBolt{}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("split", func() Bolt { return &splitterBolt{} }, 1, "key", "n").
		DeclareStream("odd", "key", "n").
		ShuffleGrouping("src")
	b.SetBolt("evens", func() Bolt { return evens }, 1).ShuffleGrouping("split")
	b.SetBolt("odds", func() Bolt { return odds }, 1).FieldsGroupingStream("split", "odd", "key")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := top.Start(); err != nil {
		t.Fatal(err)
	}
	defer top.Stop()
	waitFor(t, 2*time.Second, func() bool {
		return len(evens.snapshot())+len(odds.snapshot()) == n
	}, "all tuples routed")
	for _, v := range evens.snapshot() {
		if v[1].(int)%2 != 0 {
			t.Fatalf("odd tuple %v on the default stream", v)
		}
	}
	for _, v := range odds.snapshot() {
		if v[1].(int)%2 != 1 {
			t.Fatalf("even tuple %v on the odd stream", v)
		}
	}
	if len(evens.snapshot()) != n/2 || len(odds.snapshot()) != n/2 {
		t.Fatalf("split %d/%d, want %d/%d", len(evens.snapshot()), len(odds.snapshot()), n/2, n/2)
	}
}

func TestFieldsGroupingOnNamedStream(t *testing.T) {
	const n = 60
	spout := &listSpout{items: values(n)}
	var sinks []*collectBolt
	var mu sync.Mutex
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("split", func() Bolt { return &splitterBolt{} }, 1, "key", "n").
		DeclareStream("odd", "key", "n").
		ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt {
		cb := &collectBolt{}
		mu.Lock()
		sinks = append(sinks, cb)
		mu.Unlock()
		return cb
	}, 3).FieldsGroupingStream("split", "odd", "key")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = top.Start()
	defer top.Stop()
	waitFor(t, 2*time.Second, func() bool { return totalSeen(sinks) == n/2 }, "odd tuples delivered")
	owner := map[string]int{}
	for ti, s := range sinks {
		for _, v := range s.snapshot() {
			key := v[0].(string)
			if prev, seen := owner[key]; seen && prev != ti {
				t.Fatalf("key %q split across tasks %d and %d", key, prev, ti)
			}
			owner[key] = ti
		}
	}
}

func TestSubscribeToUndeclaredStreamFails(t *testing.T) {
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return &listSpout{} }, 1, "key")
	b.SetBolt("sink", func() Bolt { return &collectBolt{} }, 1).FieldsGroupingStream("src", "nope", "key")
	if _, err := b.Build(0); err == nil {
		t.Fatal("subscription to undeclared stream accepted")
	}
}

func TestTupleCarriesStreamName(t *testing.T) {
	spout := &listSpout{items: values(4)}
	var streams []string
	var mu sync.Mutex
	sink := &funcBolt{}
	sink.fn = func(out Collector, tup *Tuple) {
		mu.Lock()
		streams = append(streams, tup.Stream())
		mu.Unlock()
	}
	b := NewBuilder()
	b.SetSpout("src", func() Spout { return spout }, 1, "key", "n")
	b.SetBolt("split", func() Bolt { return &splitterBolt{} }, 1, "key", "n").
		DeclareStream("odd", "key", "n").
		ShuffleGrouping("src")
	b.SetBolt("sink", func() Bolt { return sink }, 1).
		ShuffleGrouping("split").
		FieldsGroupingStream("split", "odd", "key")
	top, err := b.Build(0)
	if err != nil {
		t.Fatal(err)
	}
	_ = top.Start()
	defer top.Stop()
	waitFor(t, 2*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		return len(streams) == 4
	}, "tuples delivered")
	mu.Lock()
	defer mu.Unlock()
	sawDefault, sawOdd := false, false
	for _, s := range streams {
		switch s {
		case DefaultStream:
			sawDefault = true
		case "odd":
			sawOdd = true
		default:
			t.Fatalf("unexpected stream %q", s)
		}
	}
	if !sawDefault || !sawOdd {
		t.Fatalf("streams seen: %v", streams)
	}
}
