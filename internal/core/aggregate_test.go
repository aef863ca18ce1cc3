package core

import (
	"math"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
)

// aggEnv wires a cluster with the aggregation extension stage and a direct
// bus client (no application server needed at this level).
type aggEnv struct {
	t       *testing.T
	bus     *eventlayer.MemBus
	cluster *Cluster
	notif   eventlayer.Subscription
	version uint64
}

func newAggEnv(t *testing.T) *aggEnv {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := NewCluster(bus, Options{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: time.Second,
		ExtraStages:       []Stage{NewAggregationStage("price", 2)},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	notif, err := bus.Subscribe(cluster.Topics().Notify("t"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = notif.Close()
		cluster.Stop()
		_ = bus.Close()
	})
	return &aggEnv{t: t, bus: bus, cluster: cluster, notif: notif}
}

func (e *aggEnv) subscribe(spec query.Spec, result []ResultEntry) {
	e.t.Helper()
	env := &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
		Tenant: "t", SubscriptionID: "s1", Query: spec, TTLMillis: 60_000, Result: result,
	}}
	data, err := env.Encode()
	if err != nil {
		e.t.Fatal(err)
	}
	if err := e.bus.Publish(e.cluster.Topics().Queries(), data); err != nil {
		e.t.Fatal(err)
	}
}

func (e *aggEnv) write(op document.Op, key string, doc document.Document) {
	e.t.Helper()
	e.version++
	env := &Envelope{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "items", Key: key, Version: e.version, Op: op, Doc: doc,
	}}}
	data, err := env.Encode()
	if err != nil {
		e.t.Fatal(err)
	}
	if err := e.bus.Publish(e.cluster.Topics().Writes(), data); err != nil {
		e.t.Fatal(err)
	}
}

// nextAggregate waits for the next $aggregate notification.
func (e *aggEnv) nextAggregate() document.Document {
	e.t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case msg, ok := <-e.notif.C():
			if !ok {
				e.t.Fatal("notification stream closed")
			}
			env, err := DecodeWire(msg.Payload)
			if err != nil || env.Kind != KindNotification {
				continue
			}
			if env.Notification.Key == AggregateKey {
				return env.Notification.Doc
			}
		case <-deadline:
			e.t.Fatal("timed out waiting for aggregate notification")
		}
	}
}

// num reads a numeric aggregate field (JSON transport collapses whole
// floats into integers).
func num(t *testing.T, agg document.Document, field string) float64 {
	t.Helper()
	switch v := agg[field].(type) {
	case int64:
		return float64(v)
	case float64:
		return v
	default:
		t.Fatalf("aggregate field %q = %T (%v)", field, agg[field], agg)
		return 0
	}
}

func TestAggregationStageMaintainsStats(t *testing.T) {
	e := newAggEnv(t)
	spec := query.Spec{Collection: "items", Filter: map[string]any{"onSale": true}}
	e.subscribe(spec, nil)

	// The bootstrap publishes the initial (empty) aggregate first.
	agg := e.nextAggregate()
	if num(t, agg, "count") != 0 {
		t.Fatalf("bootstrap aggregate: %v", agg)
	}

	// First sale item: count 1, avg 10.
	e.write(document.OpInsert, "a", document.Document{"_id": "a", "onSale": true, "price": 10})
	agg = e.nextAggregate()
	if num(t, agg, "count") != 1 || num(t, agg, "avg") != 10 {
		t.Fatalf("after first add: %v", agg)
	}

	// Second: count 2, avg 20, min 10, max 30.
	e.write(document.OpInsert, "b", document.Document{"_id": "b", "onSale": true, "price": 30})
	agg = e.nextAggregate()
	if num(t, agg, "count") != 2 || num(t, agg, "avg") != 20 ||
		num(t, agg, "min") != 10 || num(t, agg, "max") != 30 {
		t.Fatalf("after second add: %v", agg)
	}

	// Price change adjusts the aggregate.
	e.write(document.OpUpdate, "a", document.Document{"_id": "a", "onSale": true, "price": 50})
	agg = e.nextAggregate()
	if num(t, agg, "avg") != 40 || num(t, agg, "max") != 50 {
		t.Fatalf("after change: %v", agg)
	}

	// Leaving the result (no longer on sale) removes it from the aggregate.
	e.write(document.OpUpdate, "b", document.Document{"_id": "b", "onSale": false, "price": 30})
	agg = e.nextAggregate()
	if num(t, agg, "count") != 1 || num(t, agg, "avg") != 50 {
		t.Fatalf("after remove: %v", agg)
	}

	// Deleting the last item empties the aggregate.
	e.write(document.OpDelete, "a", nil)
	agg = e.nextAggregate()
	if num(t, agg, "count") != 0 || num(t, agg, "sum") != 0 {
		t.Fatalf("after delete: %v", agg)
	}
	if _, hasAvg := agg["avg"]; hasAvg {
		t.Fatalf("empty aggregate should omit avg: %v", agg)
	}
}

func TestAggregationBootstrapFromInitialResult(t *testing.T) {
	e := newAggEnv(t)
	spec := query.Spec{Collection: "items", Filter: map[string]any{"onSale": true}}
	e.subscribe(spec, []ResultEntry{
		{Key: "x", Version: 1, Doc: document.Document{"_id": "x", "onSale": true, "price": int64(4)}},
		{Key: "y", Version: 2, Doc: document.Document{"_id": "y", "onSale": true, "price": int64(8)}},
	})
	agg := e.nextAggregate()
	if num(t, agg, "count") != 2 || math.Abs(num(t, agg, "avg")-6) > 1e-9 {
		t.Fatalf("bootstrap aggregate: %v", agg)
	}
}

func TestAggregationIgnoresNonNumericFields(t *testing.T) {
	e := newAggEnv(t)
	spec := query.Spec{Collection: "items", Filter: map[string]any{"onSale": true}}
	e.subscribe(spec, nil)
	_ = e.nextAggregate() // bootstrap (empty)
	e.write(document.OpInsert, "a", document.Document{"_id": "a", "onSale": true, "price": 10})
	_ = e.nextAggregate()
	// A matching document without a numeric price does not contribute.
	e.write(document.OpInsert, "weird", document.Document{"_id": "weird", "onSale": true, "price": "n/a"})
	e.write(document.OpInsert, "c", document.Document{"_id": "c", "onSale": true, "price": 20})
	agg := e.nextAggregate()
	if num(t, agg, "count") != 2 || num(t, agg, "avg") != 15 {
		t.Fatalf("non-numeric handling: %v", agg)
	}
}
