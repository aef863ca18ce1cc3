package core

import (
	"math/rand"
	"testing"
	"time"
)

// TestGridLayoutRoundTripProperty is the regression test for the
// stale-capture bug: the old gridCell/gridTask pair derived the column count
// from opts.WritePartitions, so a write-partition resize silently changed
// the task<->cell mapping under cached coordinates. gridLayout bakes the
// column capacity at construction, so the round trip must hold for every
// task id regardless of what any partition-map epoch says the current
// write-partition count is.
func TestGridLayoutRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 200; trial++ {
		l := gridLayout{rows: 1 + rng.Intn(8), cols: 1 + rng.Intn(8)}
		for id := 0; id < l.tasks(); id++ {
			row, col := l.cell(id)
			if row < 0 || row >= l.rows || col < 0 || col >= l.cols {
				t.Fatalf("layout %+v: cell(%d) = (%d,%d) out of range", l, id, row, col)
			}
			if got := l.task(row, col); got != id {
				t.Fatalf("layout %+v: task(cell(%d)) = %d", l, id, got)
			}
		}
		// The mapping is invariant across resize epochs: installing maps
		// with any WritePartitions <= cols must not disturb it (the map
		// changes which columns are live, never where a task sits).
		for _, wp := range []int{1, l.cols, 1 + rng.Intn(l.cols)} {
			m := IdentityMap(l.rows, wp)
			m.Epoch = uint64(trial + 1)
			for id := 0; id < l.tasks(); id++ {
				row, col := l.cell(id)
				if got := l.task(row, col); got != id {
					t.Fatalf("layout %+v under map wp=%d: task(cell(%d)) = %d", l, wp, id, got)
				}
			}
		}
	}
}

func TestPartitionMapValidate(t *testing.T) {
	good := IdentityMap(3, 2)
	if err := good.validate(); err != nil {
		t.Fatalf("identity map invalid: %v", err)
	}
	bad := []*PartitionMap{
		{QueryPartitions: 0, WritePartitions: 1},
		{QueryPartitions: 1, WritePartitions: 0, Rows: []RowAssignment{{}}},
		{QueryPartitions: 2, WritePartitions: 1, Rows: []RowAssignment{{}}},
		{QueryPartitions: 1, WritePartitions: 1, Rows: []RowAssignment{{Slot: -1}}},
	}
	for i, m := range bad {
		if err := m.validate(); err == nil {
			t.Fatalf("bad map %d validated: %+v", i, m)
		}
	}
}

func TestMapStateEpochResolution(t *testing.T) {
	var s mapState
	if s.current() != nil || s.at(0) != nil {
		t.Fatal("empty state should resolve to nil")
	}
	m1 := IdentityMap(2, 2)
	m1.Epoch = 1
	if !s.install(m1, "") {
		t.Fatal("first install rejected")
	}
	if s.install(m1.Clone(), "") {
		t.Fatal("re-install of same epoch adopted")
	}
	m2 := IdentityMap(3, 2)
	m2.Epoch = 2
	if !s.install(m2, "") {
		t.Fatal("higher epoch rejected")
	}
	if got := s.at(2); got == nil || got.m.Epoch != 2 {
		t.Fatalf("at(2) = %+v", got)
	}
	if got := s.at(1); got == nil || got.m.Epoch != 1 {
		t.Fatalf("at(1) should resolve to prev, got %+v", got)
	}
	// Unstamped epochs resolve to cur; so does an epoch that is still not
	// installed when the wait for it runs out.
	if got := s.at(0); got == nil || got.m.Epoch != 2 {
		t.Fatalf("at(0) = %+v", got)
	}
	if got := s.at(99); got == nil || got.m.Epoch != 2 {
		t.Fatalf("at(99) = %+v", got)
	}
	cur, prev := s.both()
	if cur.m.Epoch != 2 || prev.m.Epoch != 1 {
		t.Fatalf("both() = %d, %d", cur.m.Epoch, prev.m.Epoch)
	}
	stale := IdentityMap(1, 1)
	stale.Epoch = 1
	if s.install(stale, "") {
		t.Fatal("stale epoch adopted")
	}
}

// TestMapStateWaitsForFutureEpoch: a request stamped with an epoch the
// process has not installed yet resolves under that epoch's map once the
// control topic delivers it — never under the stale one, whose column count
// would install a widened row on the old columns only.
func TestMapStateWaitsForFutureEpoch(t *testing.T) {
	var s mapState
	m1 := IdentityMap(2, 2)
	m1.Epoch = 1
	s.install(m1, "")
	got := make(chan *routing, 1)
	go func() { got <- s.at(2) }()
	for parked := false; !parked; time.Sleep(time.Millisecond) {
		s.mu.RLock()
		parked = s.installed != nil
		s.mu.RUnlock()
	}
	m2 := IdentityMap(2, 3)
	m2.Epoch = 2
	s.install(m2, "")
	if r := <-got; r == nil || r.m.Epoch != 2 || r.m.WritePartitions != 3 {
		t.Fatalf("at(2) resolved to %+v, want the epoch-2 map", r)
	}
}

// TestRoutingOwnership: a node's routing projection owns exactly the rows
// the map assigns to it, at the assigned slots.
func TestRoutingOwnership(t *testing.T) {
	m := &PartitionMap{
		Epoch: 3, QueryPartitions: 3, WritePartitions: 2,
		Rows: []RowAssignment{
			{Node: "a", Slot: 0},
			{Node: "b", Slot: 0},
			{Node: "a", Slot: 1},
		},
	}
	if err := m.validate(); err != nil {
		t.Fatal(err)
	}
	ra := newRouting(m, "a")
	if ra.ownedSlot(0) != 0 || ra.ownedSlot(1) != -1 || ra.ownedSlot(2) != 1 {
		t.Fatalf("node a slots: %v", ra.slots)
	}
	if len(ra.owned) != 2 || ra.owned[0] != (rowSlot{row: 0, slot: 0}) || ra.owned[1] != (rowSlot{row: 2, slot: 1}) {
		t.Fatalf("node a owned: %v", ra.owned)
	}
	rb := newRouting(m, "b")
	if rb.ownedSlot(0) != -1 || rb.ownedSlot(1) != 0 || rb.ownedSlot(2) != -1 {
		t.Fatalf("node b slots: %v", rb.slots)
	}
	if ra.ownedSlot(-1) != -1 || ra.ownedSlot(3) != -1 {
		t.Fatal("out-of-range rows must not be owned")
	}
}
