package gateway

import (
	"fmt"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// stack wires bus + cluster + app server + gateway.
func stack(t *testing.T) (*Server, *appserver.Server) {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := core.NewCluster(bus, core.Options{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := appserver.New(storage.Open(storage.Options{}), bus, appserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gw, err := Serve(srv, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = gw.Close()
		_ = srv.Close()
		cluster.Stop()
		_ = bus.Close()
	})
	return gw, srv
}

func dial(t *testing.T, gw *Server) *Client {
	t.Helper()
	c, err := DialClient(gw.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func recvFrame(t *testing.T, sub *ClientSub, typ string) Response {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case r, ok := <-sub.C():
			if !ok {
				t.Fatalf("subscription closed while waiting for %q", typ)
			}
			if r.Type == typ {
				return r
			}
			if r.Type == "error" {
				t.Fatalf("error frame while waiting for %q: %s", typ, r.Message)
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %q frame", typ)
		}
	}
}

func TestGatewayEndToEnd(t *testing.T) {
	gw, _ := stack(t)
	c := dial(t, gw)

	if err := c.Insert("articles", document.Document{"_id": "1", "year": 2020}); err != nil {
		t.Fatal(err)
	}
	sub, err := c.Subscribe(query.Spec{
		Collection: "articles",
		Filter:     map[string]any{"year": map[string]any{"$gte": 2018}},
	})
	if err != nil {
		t.Fatal(err)
	}
	init := recvFrame(t, sub, "initial")
	if len(init.Docs) != 1 {
		t.Fatalf("initial = %v", init.Docs)
	}
	if err := c.Insert("articles", document.Document{"_id": "2", "year": 2021}); err != nil {
		t.Fatal(err)
	}
	add := recvFrame(t, sub, "add")
	if add.Key != "2" || add.Doc["year"] != int64(2021) {
		t.Fatalf("add frame = %+v", add)
	}
	if err := c.Update("articles", "2", map[string]any{"$set": map[string]any{"year": 2022}}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sub, "change")
	if err := c.Delete("articles", "2"); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sub, "remove")

	// Pull-based query over the same connection.
	docs, err := c.Query(query.Spec{Collection: "articles"})
	if err != nil || len(docs) != 1 {
		t.Fatalf("query: %v %v", docs, err)
	}
}

func TestGatewayMultipleClientsIndependentSubscriptions(t *testing.T) {
	gw, _ := stack(t)
	alice := dial(t, gw)
	bob := dial(t, gw)
	deadline := time.Now().Add(2 * time.Second)
	for gw.Clients() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("Clients = %d", gw.Clients())
		}
		time.Sleep(2 * time.Millisecond)
	}
	subA, err := alice.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	subB, err := bob.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	recvFrame(t, subA, "initial")
	recvFrame(t, subB, "initial")
	if err := alice.Insert("c", document.Document{"_id": "k", "x": 1}); err != nil {
		t.Fatal(err)
	}
	if r := recvFrame(t, subA, "add"); r.Key != "k" {
		t.Fatal("alice missed the add")
	}
	if r := recvFrame(t, subB, "add"); r.Key != "k" {
		t.Fatal("bob missed the add")
	}
	// Bob unsubscribes; Alice keeps receiving.
	if err := subB.Close(); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond)
	if err := alice.Update("c", "k", map[string]any{"$set": map[string]any{"note": 1}}); err != nil {
		t.Fatal(err)
	}
	recvFrame(t, subA, "change")
	select {
	case r, ok := <-subB.C():
		if ok && r.Type != "" {
			t.Fatalf("bob received %+v after unsubscribe", r)
		}
	case <-time.After(100 * time.Millisecond):
	}
}

func TestGatewaySortedQueryFrames(t *testing.T) {
	gw, _ := stack(t)
	c := dial(t, gw)
	for i := 0; i < 5; i++ {
		if err := c.Insert("s", document.Document{"_id": fmt.Sprint(i), "n": i}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := c.Subscribe(query.Spec{
		Collection: "s",
		Sort:       []query.SortKey{{Path: "n", Desc: true}},
		Limit:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	init := recvFrame(t, sub, "initial")
	if len(init.Docs) != 2 || init.Docs[0]["n"] != int64(4) {
		t.Fatalf("initial window = %v", init.Docs)
	}
	if err := c.Insert("s", document.Document{"_id": "top", "n": 99}); err != nil {
		t.Fatal(err)
	}
	// The window-diff protocol emits removes before adds.
	if rm := recvFrame(t, sub, "remove"); rm.Key != "3" {
		t.Fatalf("pushed-out frame = %+v", rm)
	}
	add := recvFrame(t, sub, "add")
	if add.Key != "top" || add.Index != 0 {
		t.Fatalf("sorted add frame = %+v", add)
	}
}

func TestGatewayErrorFrames(t *testing.T) {
	gw, _ := stack(t)
	c := dial(t, gw)
	// Bad subscribe: no query.
	if _, err := c.call(Request{Op: "subscribe", ID: "x"}); err == nil {
		t.Fatal("subscribe without query accepted")
	}
	// Unknown op.
	if _, err := c.call(Request{Op: "frobnicate", ID: "y"}); err == nil {
		t.Fatal("unknown op accepted")
	}
	// Write errors surface.
	if err := c.Insert("c", document.Document{"x": 1}); err == nil {
		t.Fatal("insert without _id accepted")
	}
	if err := c.Delete("c", "missing"); err == nil {
		t.Fatal("delete of missing key accepted")
	}
	// Duplicate subscription id: the first is acknowledged, the second is
	// rejected.
	spec := query.Spec{Collection: "c"}
	if _, err := c.call(Request{Op: "subscribe", ID: "dup", Query: &spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.call(Request{Op: "subscribe", ID: "dup", Query: &spec}); err == nil {
		t.Fatal("duplicate subscription id accepted")
	}
}

func TestGatewayClientCloseCleansUpServerSide(t *testing.T) {
	gw, srv := stack(t)
	c := dial(t, gw)
	sub, err := c.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	recvFrame(t, sub, "initial")
	_ = c.Close()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if gw.Clients() == 0 {
			// The server-side subscription was closed with the connection: a
			// write produces no panic and the subscription count drops.
			if err := srv.Insert("c", document.Document{"_id": "after", "x": 1}); err != nil {
				t.Fatal(err)
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("client connection never cleaned up")
}

// TestGatewayInsertKeepsInt64: an integer beyond float64's 53-bit mantissa
// written through the gateway is stored as that exact int64, not rounded.
func TestGatewayInsertKeepsInt64(t *testing.T) {
	gw, srv := stack(t)
	c := dial(t, gw)
	const n = int64(9007199254740993) // 2^53 + 1
	if err := c.Insert("c", document.Document{"_id": "big", "n": n}); err != nil {
		t.Fatal(err)
	}
	doc, _, ok := srv.DB().C("c").Get("big")
	if !ok {
		t.Fatal("inserted document not found")
	}
	if got, ok := doc["n"].(int64); !ok || got != n {
		t.Fatalf("stored n = %v (%T), want int64 %d", doc["n"], doc["n"], n)
	}
}
