package core

import (
	"strings"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

func TestMatchTypeString(t *testing.T) {
	if MatchChangeIndex.String() != "changeIndex" || !strings.Contains(MatchType(99).String(), "99") {
		t.Fatalf("String: %v, %v", MatchChangeIndex, MatchType(99))
	}
}

func TestEnvelopeRoundTrips(t *testing.T) {
	envs := []*Envelope{
		{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t", SubscriptionID: "s", TTLMillis: 1000,
			Query:  query.Spec{Collection: "c", Filter: map[string]any{"x": 1}},
			Result: []ResultEntry{{Key: "k", Version: 2, Doc: document.Document{"_id": "k", "x": int64(1)}}},
		}},
		{Kind: KindCancel, Cancel: &CancelRequest{Tenant: "t", SubscriptionID: "s", QueryHash: 42}},
		{Kind: KindLease, Lease: &Lease{Tenant: "t", TTLMillis: 500, Subs: []LeaseEntry{{SubscriptionID: "s", QueryHash: 42}}}},
		{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 3, Op: document.OpUpdate,
			Doc: document.Document{"_id": "k", "x": int64(9)},
		}}},
		{Kind: KindNotification, Notification: &Notification{
			Tenant: "t", QueryID: QueryIDString(7), Type: MatchAdd, Key: "k",
			Doc: document.Document{"_id": "k"}, Version: 1, Index: 2, Seq: 9,
		}},
		{Kind: KindHeartbeat, Heartbeat: &Heartbeat{Tenant: "t", TimeMillis: 123}},
	}
	for _, env := range envs {
		data, err := env.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		got, err := DecodeWire(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if got.Kind != env.Kind {
			t.Fatalf("kind %s -> %s", env.Kind, got.Kind)
		}
	}
}

func TestQueryIDRoundTrip(t *testing.T) {
	for _, h := range []uint64{0, 1, 42, 0xdeadbeefcafe, ^uint64(0)} {
		id := QueryIDString(h)
		got, ok := ParseQueryID(id)
		if !ok || got != h {
			t.Fatalf("ParseQueryID(%q) = %d, %v; want %d", id, got, ok, h)
		}
	}
	for _, bad := range []string{"", "q123", "x0000000000000000", "q00000000000000zz", "q00000000000000000"} {
		if _, ok := ParseQueryID(bad); ok {
			t.Errorf("ParseQueryID(%q) accepted", bad)
		}
	}
}

func TestTenantQueryHashIsolation(t *testing.T) {
	q := query.MustCompile(query.Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	a := TenantQueryHash("tenantA", q)
	b := TenantQueryHash("tenantB", q)
	if a == b {
		t.Fatal("different tenants hash to the same query identity")
	}
	if a != TenantQueryHash("tenantA", q) {
		t.Fatal("tenant hash not deterministic")
	}
}

func TestTopics(t *testing.T) {
	tp := NewTopics("")
	if tp.Queries() != "invalidb.queries" || tp.Writes() != "invalidb.writes" {
		t.Fatalf("default topics: %s %s", tp.Queries(), tp.Writes())
	}
	if tp.Notify("t1") != "invalidb.notify.t1" {
		t.Fatalf("notify topic: %s", tp.Notify("t1"))
	}
	custom := NewTopics("bench")
	if custom.Queries() != "bench.queries" {
		t.Fatalf("namespaced topic: %s", custom.Queries())
	}
}

func TestClusterOptionDefaults(t *testing.T) {
	o := Options{}.withDefaults()
	if o.QueryPartitions != 1 || o.WritePartitions != 1 || o.NodeID != "" {
		t.Fatalf("defaults: %+v", o)
	}
	if o.RetentionTime != 5*time.Second || o.HeartbeatInterval != time.Second ||
		o.TickInterval != 250*time.Millisecond || o.QueueSize != 4096 {
		t.Fatalf("defaults: %+v", o)
	}
	if o.Engine == nil || o.Namespace != "invalidb" {
		t.Fatalf("defaults: %+v", o)
	}
}

func TestGridCellMapping(t *testing.T) {
	l := gridLayout{rows: 3, cols: 4}
	for row := 0; row < 3; row++ {
		for col := 0; col < 4; col++ {
			task := l.task(row, col)
			gr, gc := l.cell(task)
			if gr != row || gc != col {
				t.Fatalf("grid round trip (%d,%d) -> %d -> (%d,%d)", row, col, task, gr, gc)
			}
		}
	}
}
