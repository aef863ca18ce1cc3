package coordinator

import (
	"testing"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
)

// FuzzCoordinatorHandle feeds arbitrary coordination-topic payloads to a
// coordinator with two live nodes and a published map. Whatever arrives, the
// handler must not panic, must not move the epoch backwards, and must leave
// the coordinator able to place a row on a node that has a free slot.
func FuzzCoordinatorHandle(f *testing.F) {
	fleet := &core.PartitionMap{Epoch: 9, QueryPartitions: 2, WritePartitions: 2,
		Rows: []core.RowAssignment{{Node: "a", Slot: 0}, {Node: "b", Slot: 0}}}
	stale := fleet.Clone()
	stale.Epoch = 0
	for _, env := range []*core.Envelope{
		{Kind: core.KindNodeHello, Hello: &core.NodeHello{Node: "a", Slots: 2, MaxWritePartitions: 2}},
		{Kind: core.KindNodeHello, Hello: &core.NodeHello{Node: "c", Slots: 1, MaxWritePartitions: 3, Map: fleet}},
		{Kind: core.KindNodeHello, Hello: &core.NodeHello{Node: "", Slots: 1 << 20, MaxWritePartitions: 1 << 20}},
		{Kind: core.KindEpochAck, EpochAck: &core.EpochAck{Node: "a", Epoch: 1}},
		{Kind: core.KindEpochAck, EpochAck: &core.EpochAck{Node: "nobody", Epoch: 1 << 40}},
		{Kind: core.KindResize, Resize: &core.ResizeRequest{Axis: core.ResizeAxisQP}},
		{Kind: core.KindResize, Resize: &core.ResizeRequest{Axis: core.ResizeAxisWP}},
		{Kind: core.KindPartitionMap, Map: fleet},
		{Kind: core.KindPartitionMap, Map: stale},
		{Kind: core.KindHeartbeat, Heartbeat: &core.Heartbeat{Tenant: "t"}},
	} {
		data, err := env.Encode()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
		f.Add(data[:len(data)-1]) // truncated
		corrupt := append([]byte(nil), data...)
		corrupt[len(corrupt)-1] ^= 0x80
		f.Add(corrupt)
	}

	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	f.Cleanup(func() { bus.Close() })
	helloOf := func(node string, slots, maxWP int) []byte {
		data, err := (&core.Envelope{Kind: core.KindNodeHello, Hello: &core.NodeHello{
			Node: node, Slots: slots, MaxWritePartitions: maxWP,
		}}).Encode()
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		c, err := New(bus, testOptions())
		if err != nil {
			t.Fatal(err)
		}
		c.handle(helloOf("a", 2, 2))
		c.handle(helloOf("b", 2, 2))
		before := c.CurrentMap()
		if before == nil || before.Epoch != 1 {
			t.Fatalf("no initial map from two live nodes: %+v", before)
		}

		c.handle(payload)

		after := c.CurrentMap()
		if after.Epoch < before.Epoch {
			t.Fatalf("epoch went from %d to %d", before.Epoch, after.Epoch)
		}
		// A newcomer with one free slot and the column capacity the current
		// map needs must get the next row, whatever the payload announced.
		c.handle(helloOf("newcomer", 1, after.WritePartitions))
		if err := c.AddQueryPartition(); err != nil {
			t.Fatalf("cannot place a row after payload % x: %v", payload, err)
		}
	})
}
