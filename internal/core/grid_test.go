package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
)

// TestStandaloneClusterIsAOneNodeGrid: an unnamed 2 x 3 cluster and a node
// named n with the same grid, placed by an epoch-1 map that puts every row
// on n, are the same cluster: the same match and sort task counts, and for
// the same subscribe and writes the same notifications, apart from the node
// prefix of Origin.
func TestStandaloneClusterIsAOneNodeGrid(t *testing.T) {
	type outcome struct {
		tasks  map[string]int
		notifs []Notification
	}
	deploy := func(node string) outcome {
		bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
		defer bus.Close()
		topics := NewTopics("")
		notif, err := bus.Subscribe(topics.Notify("t"))
		if err != nil {
			t.Fatal(err)
		}
		defer notif.Close()
		cl, err := NewCluster(bus, Options{
			QueryPartitions: 2, WritePartitions: 3, NodeID: node,
			TickInterval: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := cl.Start(); err != nil {
			t.Fatal(err)
		}
		defer cl.Stop()
		if node != "" {
			publishEnv(t, bus, topics.Control(), &Envelope{Kind: KindPartitionMap, Map: &PartitionMap{
				Epoch: 1, QueryPartitions: 2, WritePartitions: 3,
				Rows: []RowAssignment{{Node: node, Slot: 0}, {Node: node, Slot: 1}},
			}})
			waitUntil(t, "partition map installed", func() bool { return cl.CurrentMap() != nil })
		}
		out := outcome{tasks: map[string]int{}}
		for _, st := range cl.Stats() {
			out.tasks[st.Component]++
		}

		publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t", SubscriptionID: "s1", TTLMillis: time.Minute.Milliseconds(),
			Query: query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": int64(0)}}},
		}})
		waitUntil(t, "subscription held", func() bool {
			return cl.Metrics().Snapshot().Gauges["cluster.subscriptions"] == 1
		})
		// Every write changes the result once; the next is sent only after its
		// notification arrived, so both runs see one order.
		writes := []*document.AfterImage{
			{Key: "k1", Version: 1, Op: document.OpInsert, Doc: document.Document{"_id": "k1", "v": int64(1)}},
			{Key: "k2", Version: 2, Op: document.OpInsert, Doc: document.Document{"_id": "k2", "v": int64(2)}},
			{Key: "k3", Version: 3, Op: document.OpInsert, Doc: document.Document{"_id": "k3", "v": int64(3)}},
			{Key: "k4", Version: 4, Op: document.OpInsert, Doc: document.Document{"_id": "k4", "v": int64(4)}},
			{Key: "k1", Version: 5, Op: document.OpUpdate, Doc: document.Document{"_id": "k1", "v": int64(10)}},
			{Key: "k2", Version: 6, Op: document.OpUpdate, Doc: document.Document{"_id": "k2", "v": int64(-1)}},
			{Key: "k3", Version: 7, Op: document.OpDelete},
		}
		for _, img := range writes {
			img.Collection = "c"
			publishEnv(t, bus, topics.Writes(), &Envelope{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: img}})
			timeout := time.After(5 * time.Second)
		wait:
			for {
				select {
				case msg := <-notif.C():
					env, err := DecodeWire(msg.Payload)
					if err != nil || env.Kind != KindNotification {
						continue
					}
					n := *env.Notification
					prefix, origin, ok := strings.Cut(n.Origin, ":")
					if !ok || prefix != node {
						t.Fatalf("origin %q, want the node prefix %q", n.Origin, node+":")
					}
					n.Origin, n.IngestNs, n.MatchNs = origin, 0, 0
					out.notifs = append(out.notifs, n)
					break wait
				case <-timeout:
					t.Fatalf("node %q: no notification for the write of %s v%d", node, img.Key, img.Version)
				}
			}
		}
		return out
	}

	standalone, named := deploy(""), deploy("n")
	if standalone.tasks["match"] != 6 || standalone.tasks["sort"] != 2 {
		t.Fatalf("standalone 2 x 3 grid runs %v, want 6 match and 2 sort tasks", standalone.tasks)
	}
	if !reflect.DeepEqual(standalone.tasks, named.tasks) {
		t.Fatalf("task counts differ: standalone %v, named %v", standalone.tasks, named.tasks)
	}
	if !reflect.DeepEqual(standalone.notifs, named.notifs) {
		t.Fatalf("notifications differ:\nstandalone %+v\nnamed      %+v", standalone.notifs, named.notifs)
	}
}

// TestUnplacedNodeAnnouncesAtOnce: a named node whose start-up hello went
// out before anything listened, and which then adopts a map placing none of
// its rows, announces itself at once rather than at its next heartbeat tick —
// otherwise a resize requested within that tick finds no node to place the
// new row on.
func TestUnplacedNodeAnnouncesAtOnce(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	topics := NewTopics("")
	cl, err := NewCluster(bus, Options{NodeID: "b", HeartbeatInterval: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()

	coord, err := bus.Subscribe(topics.Coord())
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	publishEnv(t, bus, topics.Control(), &Envelope{Kind: KindPartitionMap, Map: &PartitionMap{
		Epoch: 1, QueryPartitions: 1, WritePartitions: 1, Rows: []RowAssignment{{Node: "a", Slot: 0}},
	}})
	// The start-up hello carries no map; the one the map triggers carries it.
	deadline := time.After(100 * time.Millisecond)
	for {
		select {
		case msg := <-coord.C():
			env, err := DecodeWire(msg.Payload)
			if err == nil && env.Kind == KindNodeHello && env.Hello.Node == "b" &&
				env.Hello.Map != nil && env.Hello.Map.Epoch == 1 {
				return
			}
		case <-deadline:
			t.Fatal("no NodeHello from the unplaced node within 100 ms of its first map")
		}
	}
}
