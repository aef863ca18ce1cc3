package core

import (
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
)

// TestStageTimestampsPropagate runs a real cluster on a MemBus and checks
// the latency-tracing contract end to end: a write stamped with SentNs at
// the producer comes back as a notification carrying monotonically ordered
// write -> ingest -> match timestamps, and the registry's counters reflect
// the traffic. Run under -race this also exercises concurrent stamp reads.
func TestStageTimestampsPropagate(t *testing.T) {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	cluster, err := NewCluster(bus, Options{
		QueryPartitions: 2,
		WritePartitions: 2,
		TickInterval:    50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	defer cluster.Stop()

	topics := cluster.Topics()
	sub, err := bus.Subscribe(topics.Notify("t"))
	if err != nil {
		t.Fatal(err)
	}
	defer sub.Close()

	env := &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
		Tenant:         "t",
		SubscriptionID: "trace-1",
		Query:          query.Spec{Collection: "c", Filter: map[string]any{"v": int64(1)}},
		TTLMillis:      time.Minute.Milliseconds(),
	}}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(topics.Queries(), data); err != nil {
		t.Fatal(err)
	}
	// Wait until the subscription is installed before writing.
	deadline := time.Now().Add(5 * time.Second)
	for cluster.Metrics().Snapshot().Counters["cluster.subscribes"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("subscription never installed")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sentNs := time.Now().UnixNano()
	wenv := &Envelope{Kind: KindWrite, Write: &WriteEvent{
		Tenant: "t",
		SentNs: sentNs,
		Image: &document.AfterImage{
			Collection: "c",
			Key:        "k1",
			Version:    1,
			Op:         document.OpInsert,
			Doc:        document.Document{"_id": "k1", "v": int64(1)},
		},
	}}
	if data, err = wenv.Encode(); err != nil {
		t.Fatal(err)
	}
	if err := bus.Publish(topics.Writes(), data); err != nil {
		t.Fatal(err)
	}

	var n *Notification
	timeout := time.After(5 * time.Second)
	for n == nil {
		select {
		case msg := <-sub.C():
			env, err := DecodeWire(msg.Payload)
			if err != nil || env.Kind != KindNotification {
				continue
			}
			if env.Notification.Type == MatchAdd {
				n = env.Notification
			}
		case <-timeout:
			t.Fatal("no notification within 5s")
		}
	}

	now := time.Now().UnixNano()
	if n.WriteNs != sentNs {
		t.Errorf("WriteNs = %d, want producer stamp %d", n.WriteNs, sentNs)
	}
	if n.IngestNs < n.WriteNs || n.IngestNs > now {
		t.Errorf("IngestNs %d outside [WriteNs %d, now %d]", n.IngestNs, n.WriteNs, now)
	}
	if n.MatchNs < n.IngestNs || n.MatchNs > now {
		t.Errorf("MatchNs %d outside [IngestNs %d, now %d]", n.MatchNs, n.IngestNs, now)
	}

	snap := cluster.Metrics().Snapshot()
	for _, name := range []string{"cluster.writes_ingested", "cluster.writes_matched", "cluster.notifications"} {
		if snap.Counters[name] == 0 {
			t.Errorf("counter %s = 0, want > 0", name)
		}
	}
}
