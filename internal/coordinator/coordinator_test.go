package coordinator

import (
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
)

func testOptions() Options {
	return Options{
		QueryPartitions:   2,
		WritePartitions:   2,
		RepublishInterval: 10 * time.Millisecond,
	}
}

func startCoordinator(t *testing.T, bus eventlayer.Bus, opts Options) *Coordinator {
	t.Helper()
	c, err := New(bus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Stop)
	return c
}

// hello publishes a NodeHello the way a named cluster process does.
func hello(t *testing.T, bus eventlayer.Bus, node string, slots, maxWP int, m *core.PartitionMap) {
	t.Helper()
	env := &core.Envelope{Kind: core.KindNodeHello, Hello: &core.NodeHello{
		Node: node, Slots: slots, MaxWritePartitions: maxWP, Map: m,
	}}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(core.NewTopics("").Coord(), data); err != nil {
		t.Fatal(err)
	}
}

func waitMap(t *testing.T, c *Coordinator, what string, timeout time.Duration, ok func(*core.PartitionMap) bool) *core.PartitionMap {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if m := c.CurrentMap(); m != nil && ok(m) {
			return m
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s; map: %+v", what, c.CurrentMap())
	return nil
}

// TestInitialPlacementWaitsForCapacity: no map is published until the
// announced fleet can host every row, then rows spread over the nodes with
// the most free slots.
func TestInitialPlacementWaitsForCapacity(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	opts := testOptions()
	opts.QueryPartitions = 3
	c := startCoordinator(t, bus, opts)

	hello(t, bus, "a", 2, 2, nil)
	time.Sleep(50 * time.Millisecond)
	if m := c.CurrentMap(); m != nil {
		t.Fatalf("map published with insufficient capacity: %+v", m)
	}

	hello(t, bus, "b", 2, 2, nil)
	m := waitMap(t, c, "initial placement", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 1 })
	if m.QueryPartitions != 3 || m.WritePartitions != 2 || len(m.Rows) != 3 {
		t.Fatalf("map = %+v, want 3x2 with 3 rows", m)
	}
	perNode := map[string]int{}
	for _, r := range m.Rows {
		perNode[r.Node]++
	}
	// Greedy most-free placement alternates: no node exceeds its slots and
	// both nodes host at least one row.
	if perNode["a"] == 0 || perNode["b"] == 0 || perNode["a"] > 2 || perNode["b"] > 2 {
		t.Fatalf("rows unbalanced: %v", perNode)
	}
}

// TestResizeViaCoordTopic: a ResizeRequest published on the coordination
// topic (the one-shot CLI path) grows the grid exactly like the direct call.
func TestResizeViaCoordTopic(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	c := startCoordinator(t, bus, testOptions())
	hello(t, bus, "a", 4, 2, nil)
	waitMap(t, c, "initial placement", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 1 })

	env := &core.Envelope{Kind: core.KindResize, Resize: &core.ResizeRequest{Axis: core.ResizeAxisQP}}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(core.NewTopics("").Coord(), data); err != nil {
		t.Fatal(err)
	}
	m := waitMap(t, c, "qp resize", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 2 })
	if m.QueryPartitions != 3 || len(m.Rows) != 3 {
		t.Fatalf("map = %+v, want 3 rows after qp resize", m)
	}
}

// TestAddWritePartitionRequiresHeadroom: the wp axis only grows when every
// assigned node announced the column capacity, and a refusal moves nothing.
func TestAddWritePartitionRequiresHeadroom(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	c := startCoordinator(t, bus, testOptions())
	hello(t, bus, "a", 4, 2, nil)
	waitMap(t, c, "initial placement", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 1 })

	if err := c.AddWritePartition(); err == nil {
		t.Fatal("AddWritePartition succeeded beyond announced capacity")
	}
	if m := c.CurrentMap(); m.Epoch != 1 || m.WritePartitions != 2 {
		t.Fatalf("refused resize still moved the map: %+v", m)
	}

	// Announce the headroom; the same resize now succeeds.
	hello(t, bus, "a", 4, 3, nil)
	time.Sleep(30 * time.Millisecond)
	if err := c.AddWritePartition(); err != nil {
		t.Fatal(err)
	}
	if m := c.CurrentMap(); m.Epoch != 2 || m.WritePartitions != 3 {
		t.Fatalf("map = %+v, want epoch 2 with 3 write partitions", m)
	}
}

// TestRecoversFromRetainedMap: a successor coordinator started against a
// broker still holding the retained control topic adopts its predecessor's
// epoch instead of restarting placement from scratch.
func TestRecoversFromRetainedMap(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	prev := &core.PartitionMap{
		Epoch:           5,
		QueryPartitions: 2,
		WritePartitions: 2,
		Rows:            []core.RowAssignment{{Node: "a", Slot: 0}, {Node: "a", Slot: 1}},
	}
	env := &core.Envelope{Kind: core.KindPartitionMap, Map: prev}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(core.NewTopics("").Control(), data); err != nil {
		t.Fatal(err)
	}

	c := startCoordinator(t, bus, testOptions())
	m := waitMap(t, c, "retained recovery", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 5 })
	if len(m.Rows) != 2 || m.Rows[0].Node != "a" {
		t.Fatalf("recovered map = %+v, want predecessor's assignment", m)
	}
}

// TestRecoversFromFleetHellos: when the broker restarted too (no retained
// map), the fleet's hellos — each carrying the epoch its sender routes by —
// are the recovery path, and they double as implicit epoch acks so the
// successor's convergence tracking works for epochs acked before it existed.
func TestRecoversFromFleetHellos(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	c := startCoordinator(t, bus, testOptions())
	fleet := &core.PartitionMap{
		Epoch:           7,
		QueryPartitions: 2,
		WritePartitions: 2,
		Rows:            []core.RowAssignment{{Node: "a", Slot: 0}, {Node: "b", Slot: 0}},
	}
	hello(t, bus, "a", 2, 2, fleet)
	hello(t, bus, "b", 2, 2, fleet)
	waitMap(t, c, "hello recovery", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 7 })
	if !c.WaitConverged(5 * time.Second) {
		t.Fatal("hello-implied acks did not converge the recovered epoch")
	}
}

// TestNodeExpiry: a node that stops helloing leaves placement consideration,
// so a resize that needs its slots is refused instead of assigned to a ghost.
func TestNodeExpiry(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	opts := testOptions()
	opts.QueryPartitions = 1
	opts.NodeExpiry = 50 * time.Millisecond
	c := startCoordinator(t, bus, opts)
	hello(t, bus, "ghost", 1, 2, nil)
	waitMap(t, c, "initial placement", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 1 })

	deadline := time.Now().Add(5 * time.Second)
	for len(c.Nodes()) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if nodes := c.Nodes(); len(nodes) != 0 {
		t.Fatalf("silent node never expired: %v", nodes)
	}
	if err := c.AddQueryPartition(); err == nil {
		t.Fatal("AddQueryPartition placed a row on an expired node")
	}
}

// TestUnnamedHelloDoesNotWedgePlacement: pickNode answers "" for "no node
// has a free slot", so a hello from a node named "" with the most free slots
// used to read as no capacity for as long as it kept arriving. No grid
// process sends one; the codec rejects it, and the fleet gets its map.
func TestUnnamedHelloDoesNotWedgePlacement(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	c := startCoordinator(t, bus, testOptions())
	hello(t, bus, "", 64, 2, nil)
	hello(t, bus, "a", 2, 2, nil)
	m := waitMap(t, c, "initial placement", 5*time.Second, func(m *core.PartitionMap) bool { return m.Epoch == 1 })
	for _, r := range m.Rows {
		if r.Node != "a" {
			t.Fatalf("row placed on %q: %+v", r.Node, m)
		}
	}
	if nodes := c.Nodes(); len(nodes) != 1 || nodes[0] != "a" {
		t.Fatalf("announced nodes = %q, want only a", nodes)
	}
	if err := c.AddQueryPartition(); err == nil {
		t.Fatal("AddQueryPartition placed a third row on a two-slot fleet")
	}
}
