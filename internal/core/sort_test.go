package core

import (
	"fmt"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/topology"
)

// sortHarness drives a sortBolt directly with synthetic bootstraps and
// deltas, capturing the notifications it publishes.
type sortHarness struct {
	t     *testing.T
	bolt  *sortBolt
	notif eventlayer.Subscription
	q     *query.Query
	hash  uint64
	ver   uint64
}

type nopCollector struct{}

func (nopCollector) Emit(topology.Values)               {}
func (nopCollector) EmitStream(string, topology.Values) {}
func (nopCollector) EmitDirect(int, topology.Values)    {}

func newSortHarness(t *testing.T, spec query.Spec, slack int) *sortHarness {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := NewCluster(bus, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The cluster is used only as the bolt's publication context; its
	// topology is never started.
	notif, err := bus.Subscribe(cluster.Topics().Notify("t"))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = notif.Close(); _ = bus.Close() })
	q, err := query.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	bolt := newSortBolt(cluster).(*sortBolt)
	if err := bolt.Prepare(&topology.BoltContext{TaskID: 0}, nopCollector{}); err != nil {
		t.Fatal(err)
	}
	return &sortHarness{
		t: t, bolt: bolt, notif: notif, q: q,
		hash: TenantQueryHash("t", q),
	}
}

func (h *sortHarness) entry(key string, rank int) ResultEntry {
	h.ver++
	return h.entryV(key, rank, h.ver)
}

// entryV builds an entry with an explicit version (for bootstraps that were
// read before later writes).
func (h *sortHarness) entryV(key string, rank int, ver uint64) ResultEntry {
	return ResultEntry{Key: key, Version: ver,
		Doc: document.Document{"_id": key, "rank": int64(rank)}}
}

func (h *sortHarness) bootstrap(sid string, slack int, entries ...ResultEntry) {
	h.bolt.handleBootstrap(&subscribePayload{
		req:     &SubscribeRequest{Tenant: "t", SubscriptionID: sid},
		q:       h.q,
		hash:    h.hash,
		slack:   slack,
		ttl:     time.Minute,
		entries: entries,
	})
}

func (h *sortHarness) delta(mt MatchType, key string, rank int) {
	h.ver++
	d := &deltaEvent{
		Tenant: "t", QueryID: QueryIDString(h.hash), Type: mt,
		Key: key, Version: h.ver,
	}
	if mt != MatchRemove {
		d.Doc = document.Document{"_id": key, "rank": int64(rank)}
	}
	h.bolt.handleDelta(d)
}

// drain returns all notifications published so far.
func (h *sortHarness) drain() []*Notification {
	var out []*Notification
	for {
		select {
		case msg := <-h.notif.C():
			env, err := DecodeWire(msg.Payload)
			if err != nil || env.Kind != KindNotification {
				continue
			}
			out = append(out, env.Notification)
		default:
			return out
		}
	}
}

// window reconstructs the client view from a notification stream applied to
// a starting window, following the published protocol.
func applyProtocol(start []string, notifs []*Notification) []string {
	win := append([]string(nil), start...)
	remove := func(key string) {
		for i, k := range win {
			if k == key {
				win = append(win[:i], win[i+1:]...)
				return
			}
		}
	}
	for _, n := range notifs {
		switch n.Type {
		case MatchRemove:
			remove(n.Key)
		case MatchAdd, MatchChangeIndex:
			remove(n.Key)
			idx := n.Index
			if idx < 0 || idx > len(win) {
				idx = len(win)
			}
			win = append(win, "")
			copy(win[idx+1:], win[idx:])
			win[idx] = n.Key
		}
	}
	return win
}

func winString(win []string) string {
	s := ""
	for i, k := range win {
		if i > 0 {
			s += ","
		}
		s += k
	}
	return s
}

func spec3() query.Spec {
	return query.Spec{Collection: "s", Sort: []query.SortKey{{Path: "rank"}}, Limit: 3}
}

func TestSortBoltWindowBasics(t *testing.T) {
	h := newSortHarness(t, spec3(), 2)
	h.bootstrap("s1", 2, h.entry("a", 1), h.entry("b", 2), h.entry("c", 3), h.entry("d", 4), h.entry("e", 5))
	if got := h.drain(); len(got) != 0 {
		t.Fatalf("bootstrap must not notify: %v", got)
	}
	// Insert at the head: window a,b,c -> x,a,b, with c removed.
	h.delta(MatchAdd, "x", 0)
	notifs := h.drain()
	win := applyProtocol([]string{"a", "b", "c"}, notifs)
	if winString(win) != "x,a,b" {
		t.Fatalf("window after head insert = %s (notifs %v)", winString(win), notifs)
	}
	// Remove the head: slack absorbs it.
	h.delta(MatchRemove, "x", 0)
	win = applyProtocol(win, h.drain())
	if winString(win) != "a,b,c" {
		t.Fatalf("window after remove = %s", winString(win))
	}
}

func TestSortBoltMaintenanceErrorAfterSlackExhausted(t *testing.T) {
	h := newSortHarness(t, spec3(), 1)
	h.bootstrap("s1", 1, h.entry("a", 1), h.entry("b", 2), h.entry("c", 3), h.entry("d", 4))
	_ = h.drain()
	h.delta(MatchRemove, "a", 0) // slack absorbs: window b,c,d
	notifs := h.drain()
	win := applyProtocol([]string{"a", "b", "c"}, notifs)
	if winString(win) != "b,c,d" {
		t.Fatalf("after first remove: %s", winString(win))
	}
	// Slack is now empty; the next removal is unmaintainable.
	h.delta(MatchRemove, "b", 0)
	notifs = h.drain()
	if len(notifs) != 1 || notifs[0].Type != MatchError {
		t.Fatalf("expected a maintenance error, got %v", notifs)
	}
	if h.bolt.queries[h.hash].active {
		t.Fatal("query still active after maintenance error")
	}
}

// TestSortBoltPublishedWindowAcrossDoubleError is the regression test for
// the renewal protocol: deltas buffered during a renewal can re-trigger a
// maintenance error, and the eventual diff must still be relative to the
// subscribers' last known window.
func TestSortBoltPublishedWindowAcrossDoubleError(t *testing.T) {
	h := newSortHarness(t, spec3(), 1)
	h.bootstrap("s1", 1, h.entry("a", 1), h.entry("b", 2), h.entry("c", 3), h.entry("d", 4))
	_ = h.drain()
	clientWin := []string{"a", "b", "c"}

	h.delta(MatchRemove, "a", 0)
	clientWin = applyProtocol(clientWin, h.drain()) // b,c,d
	h.delta(MatchRemove, "b", 0)                    // error 1
	_ = h.drain()

	// Remember the versions d and e carried when the (stale) renewal
	// bootstrap was read, then let three more removals arrive while the
	// query awaits renewal: buffered.
	verD, verE := h.ver+10, h.ver+11 // versions the bootstrap read observed
	h.ver += 12
	h.delta(MatchRemove, "c", 0)
	h.delta(MatchRemove, "d", 0)
	h.delta(MatchRemove, "e", 0)

	// Renewal bootstrap, read by the server before the later removals
	// landed (its d/e versions predate the buffered deletes): applying the
	// buffered deltas (d and e leave a 4-entry state with only 2 entries,
	// below offset+limit) re-triggers the maintenance error, so subscribers
	// must see nothing but the error yet.
	h.bootstrap("s1", 1,
		h.entryV("d", 4, verD), h.entryV("e", 5, verE),
		h.entry("f", 6), h.entry("g", 7))
	notifs := h.drain()
	for _, n := range notifs {
		if n.Type != MatchError {
			t.Fatalf("expected only error notifications before a clean renewal, got %v", n.Type)
		}
	}
	if h.bolt.queries[h.hash].active {
		t.Fatal("query should await a second renewal")
	}

	// The second renewal reflects the final state; the diff must transform
	// the client's LAST window (b,c,d), not the node's internal state.
	h.bootstrap("s1", 1, h.entry("f", 6), h.entry("g", 7), h.entry("h", 8), h.entry("i", 9))
	clientWin = applyProtocol(clientWin, h.drain())
	if winString(clientWin) != "f,g,h" {
		t.Fatalf("client window after double-error renewal = %s, want f,g,h", winString(clientWin))
	}
}

func TestSortBoltStaleDeltaIgnored(t *testing.T) {
	h := newSortHarness(t, spec3(), 2)
	h.bootstrap("s1", 2, h.entry("a", 1), h.entry("b", 2))
	_ = h.drain()
	// A delta older than the entry's bootstrap version must be ignored.
	d := &deltaEvent{
		Tenant: "t", QueryID: QueryIDString(h.hash), Type: MatchRemove,
		Key: "a", Version: 1, // bootstrap versions are higher
	}
	h.bolt.handleDelta(d)
	if got := h.drain(); len(got) != 0 {
		t.Fatalf("stale delta produced notifications: %v", got)
	}
}

func TestSortBoltUnknownQueryDeltaIgnored(t *testing.T) {
	h := newSortHarness(t, spec3(), 2)
	d := &deltaEvent{Tenant: "t", QueryID: QueryIDString(12345), Type: MatchAdd,
		Key: "a", Version: 1, Doc: document.Document{"_id": "a", "rank": int64(1)}}
	h.bolt.handleDelta(d) // must not panic
	if got := h.drain(); len(got) != 0 {
		t.Fatalf("unknown-query delta notified: %v", got)
	}
}

func TestSortBoltCancelAndExpireDropState(t *testing.T) {
	h := newSortHarness(t, spec3(), 2)
	h.bootstrap("s1", 2, h.entry("a", 1))
	h.bootstrap("s2", 2, h.entry("a", 1))
	if len(h.bolt.queries) != 1 {
		t.Fatalf("queries = %d", len(h.bolt.queries))
	}
	// Cancelling one of two subscriptions keeps the state.
	h.bolt.handleCancel(&CancelRequest{Tenant: "t", SubscriptionID: "s1", QueryHash: h.hash})
	if len(h.bolt.queries) != 1 {
		t.Fatal("state dropped while a subscription remains")
	}
	// Expiry drops it outright.
	h.bolt.handleExpire(h.hash)
	if len(h.bolt.queries) != 0 {
		t.Fatal("state survived expiry")
	}
}

func TestSortBoltUnboundedQueryNeverErrors(t *testing.T) {
	h := newSortHarness(t, query.Spec{Collection: "s", Sort: []query.SortKey{{Path: "rank"}}}, 0)
	var entries []ResultEntry
	for i := 0; i < 10; i++ {
		entries = append(entries, h.entry(fmt.Sprintf("k%d", i), i))
	}
	h.bootstrap("s1", 0, entries...)
	_ = h.drain()
	for i := 0; i < 10; i++ {
		h.delta(MatchRemove, fmt.Sprintf("k%d", i), i)
	}
	for _, n := range h.drain() {
		if n.Type == MatchError {
			t.Fatal("unbounded sorted query raised a maintenance error")
		}
	}
	if sq := h.bolt.queries[h.hash]; len(sq.entries) != 0 || !sq.active {
		t.Fatalf("state after removals: %d entries active=%v", len(sq.entries), sq.active)
	}
}
