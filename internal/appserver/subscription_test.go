package appserver

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// newDetachedSub builds a Subscription the way Subscribe does, on a server
// with no cluster behind it and without attaching it, for unit tests of the
// client-side window reconstruction protocol and of the event queue.
func newDetachedSub(t *testing.T, spec query.Spec, buffer int) *Subscription {
	t.Helper()
	q, err := query.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	srv, err := New(storage.Open(storage.Options{}), bus, Options{EventBuffer: buffer, HeartbeatTimeout: -1})
	if err != nil {
		t.Fatal(err)
	}
	sub := srv.newSubscription(q)
	t.Cleanup(func() {
		_ = sub.Close()
		_ = srv.Close()
		_ = bus.Close()
	})
	return sub
}

// nextEvent reads one event, failing the test if none arrives in time (an
// event that waited in the backlog reaches C through the drainer).
func nextEvent(t *testing.T, sub *Subscription) Event {
	t.Helper()
	select {
	case ev, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription closed while waiting for an event")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for an event")
	}
	return Event{}
}

// waitGoroutines waits for the goroutine count to fall back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want the baseline of %d: a drainer outlived its backlog", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
}

func sortedSpec() query.Spec {
	return query.Spec{Collection: "c", Sort: []query.SortKey{{Path: "n"}}, Limit: 5}
}

func notif(mt core.MatchType, key string, idx int, doc document.Document) *core.Notification {
	return &core.Notification{QueryID: core.QueryIDString(1), Type: mt, Key: key, Index: idx, Doc: doc}
}

func TestApplyProtocolReconstructsWindow(t *testing.T) {
	sub := newDetachedSub(t, sortedSpec(), 64)
	sub.installInitial([]core.ResultEntry{
		{Key: "a", Version: 1, Doc: document.Document{"_id": "a", "n": int64(1)}},
		{Key: "c", Version: 2, Doc: document.Document{"_id": "c", "n": int64(3)}},
	}, 2)
	// Insert "b" between them.
	sub.apply(notif(core.MatchAdd, "b", 1, document.Document{"_id": "b", "n": int64(2)}))
	if got := ids(sub.Result()); got != "a,b,c" {
		t.Fatalf("after add: %s", got)
	}
	// Move "a" to the end via changeIndex.
	sub.apply(notif(core.MatchChangeIndex, "a", 2, document.Document{"_id": "a", "n": int64(9)}))
	if got := ids(sub.Result()); got != "b,c,a" {
		t.Fatalf("after changeIndex: %s", got)
	}
	// In-place change.
	sub.apply(notif(core.MatchChange, "c", 1, document.Document{"_id": "c", "n": int64(3), "x": true}))
	if got := sub.Result(); got[1]["x"] != true {
		t.Fatalf("after change: %v", got)
	}
	// Remove.
	sub.apply(notif(core.MatchRemove, "b", -1, nil))
	if got := ids(sub.Result()); got != "c,a" {
		t.Fatalf("after remove: %s", got)
	}
}

func TestApplyAddIsIdempotentOnDuplicateKey(t *testing.T) {
	sub := newDetachedSub(t, sortedSpec(), 64)
	sub.installInitial(nil, 0)
	sub.apply(notif(core.MatchAdd, "k", 0, document.Document{"_id": "k", "n": int64(1)}))
	// A repeated add for the same key (e.g. across a renewal) must move,
	// not duplicate.
	sub.apply(notif(core.MatchAdd, "x", 0, document.Document{"_id": "x", "n": int64(0)}))
	sub.apply(notif(core.MatchAdd, "k", 0, document.Document{"_id": "k", "n": int64(-1)}))
	if got := ids(sub.Result()); got != "k,x" {
		t.Fatalf("duplicate add corrupted window: %s", got)
	}
}

func TestApplyOutOfRangeIndexClamps(t *testing.T) {
	sub := newDetachedSub(t, sortedSpec(), 64)
	sub.installInitial(nil, 0)
	sub.apply(notif(core.MatchAdd, "a", 99, document.Document{"_id": "a"}))
	sub.apply(notif(core.MatchAdd, "b", -5, document.Document{"_id": "b"}))
	if len(sub.Result()) != 2 {
		t.Fatalf("clamped inserts lost docs: %v", sub.Result())
	}
}

// waitBacklog waits until n events wait behind the handoff. With a consumer
// that reads nothing it settles at one less than were pushed past the
// handoff: the drainer holds the oldest, blocked on the full channel.
func waitBacklog(t *testing.T, sub *Subscription, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		sub.mu.Lock()
		got := len(sub.backlog)
		sub.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("backlog holds %d events, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestOverflowCollapsesToSnapshot: a consumer that falls more than
// EventBuffer events behind is handed the full current result in one event,
// not the tail of a log whose head is gone — and that event is the initial
// result when the initial result is among what was shed.
func TestOverflowCollapsesToSnapshot(t *testing.T) {
	const bound = 4
	// stalled returns a subscription nobody reads whose handoff holds fill
	// events that change nothing in the result.
	stalled := func(fill int) *Subscription {
		sub := newDetachedSub(t, query.Spec{Collection: "c"}, bound)
		for i := 0; i < fill; i++ {
			sub.disconnect(nil)
		}
		return sub
	}
	add := func(sub *Subscription, n int) {
		for i := 0; i < n; i++ {
			key := fmt.Sprintf("k%03d", i)
			sub.apply(notif(core.MatchAdd, key, -1, document.Document{"_id": key}))
		}
	}
	skip := func(sub *Subscription, n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if ev := nextEvent(t, sub); ev.Type != EventDisconnected {
				t.Fatalf("event %d = %v, want what the handoff held, in order", i, ev.Type)
			}
		}
	}

	// The initial result has left the backlog (the drainer holds it, blocked
	// on the full handoff) when five adds arrive: four fill the backlog, the
	// fifth overflows it.
	sub := stalled(handoffSlots)
	sub.installInitial(nil, 0)
	waitBacklog(t, sub, 0)
	add(sub, bound+1)
	if got, n := sub.Dropped(), sub.server.mEventDrops.Value(); got != bound+1 || n != bound+1 {
		t.Fatalf("Dropped = %d, appserver.event_drops = %d, want %d", got, n, bound+1)
	}
	skip(sub, handoffSlots)
	if ev := nextEvent(t, sub); ev.Type != EventInitial || len(ev.Docs) != 0 {
		t.Fatalf("first event = %+v, want the initial result", ev)
	}
	if ev := nextEvent(t, sub); ev.Type != EventReconnected || ids(ev.Docs) != "k000,k001,k002,k003,k004" || ev.Index != -1 {
		t.Fatalf("after overflow: %v [%s], want one reconnected event with the full result", ev.Type, ids(ev.Docs))
	}
	expectNoEvent(t, sub, 20*time.Millisecond)

	// The initial result is still in the backlog and is shed with the adds
	// behind it: the snapshot takes its place as the first event.
	sub = stalled(handoffSlots + 1)
	waitBacklog(t, sub, 0)
	sub.installInitial(nil, 0)
	add(sub, bound)
	if got := sub.Dropped(); got != bound+1 {
		t.Fatalf("Dropped = %d, want %d (the initial result and %d adds)", got, bound+1, bound)
	}
	skip(sub, handoffSlots+1)
	if ev := nextEvent(t, sub); ev.Type != EventInitial || ids(ev.Docs) != "k000,k001,k002,k003" {
		t.Fatalf("first result event = %v [%s], want an initial event with the full result", ev.Type, ids(ev.Docs))
	}
	expectNoEvent(t, sub, 20*time.Millisecond)

	// An error is not part of the result: it follows the snapshot.
	sub = stalled(handoffSlots + 1)
	waitBacklog(t, sub, 0)
	add(sub, bound)
	sub.fail(fmt.Errorf("boom"))
	skip(sub, handoffSlots+1)
	if ev := nextEvent(t, sub); ev.Type != EventReconnected || len(ev.Docs) != bound {
		t.Fatalf("overflowing error: got %v with %d docs first, want the snapshot", ev.Type, len(ev.Docs))
	}
	if ev := nextEvent(t, sub); ev.Type != EventError || ev.Err.Error() != "boom" {
		t.Fatalf("overflowing error was shed: %+v", ev)
	}
	if got := sub.Dropped(); got != bound {
		t.Fatalf("Dropped = %d, want the %d adds", got, bound)
	}
}

// TestEventQueueKeepsOrderAcrossBacklog pushes numbered events in bursts
// larger than the handoff at a consumer that stalls at random: every event
// arrives, in order, and no drainer outlives the backlog it was started for.
func TestEventQueueKeepsOrderAcrossBacklog(t *testing.T) {
	const total = 10000
	sub := newDetachedSub(t, query.Spec{Collection: "c"}, total)
	running := runtime.NumGoroutine()
	got := make(chan error, 1)
	go func() {
		rng := rand.New(rand.NewSource(1))
		for want := 0; want < total; want++ {
			ev, ok := <-sub.C()
			if !ok || ev.Index != want {
				got <- fmt.Errorf("event %d: got index %d (open %v)", want, ev.Index, ok)
				return
			}
			if rng.Intn(200) == 0 {
				time.Sleep(time.Duration(rng.Intn(300)) * time.Microsecond)
			}
		}
		got <- nil
	}()
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < total; {
		for burst := handoffSlots + rng.Intn(3*handoffSlots); burst > 0 && i < total; burst-- {
			sub.push(Event{Type: EventChange, Index: i})
			i++
		}
		if rng.Intn(4) == 0 {
			time.Sleep(time.Duration(rng.Intn(200)) * time.Microsecond)
		}
	}
	select {
	case err := <-got:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("consumer never received every event")
	}
	if sub.Dropped() != 0 {
		t.Fatalf("Dropped = %d with the lag under EventBuffer", sub.Dropped())
	}
	waitGoroutines(t, running)
}

// TestCloseWithBacklogAndStalledConsumer: Close does not wait for a consumer
// that has stopped reading, the stream ends, and the server shuts down.
func TestCloseWithBacklogAndStalledConsumer(t *testing.T) {
	sub := newDetachedSub(t, query.Spec{Collection: "c"}, 1024)
	running := runtime.NumGoroutine()
	for i := 0; i < handoffSlots+100; i++ {
		sub.push(Event{Type: EventChange, Index: i})
	}
	start := time.Now()
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("Close took %v behind a stalled consumer", d)
	}
	sub.push(Event{Type: EventChange}) // must not panic
	// What the handoff held is still readable; then the channel is closed.
	closed := make(chan int)
	go func() {
		n := 0
		for range sub.C() {
			n++
		}
		closed <- n
	}()
	select {
	case n := <-closed:
		if n > handoffSlots+1 {
			t.Fatalf("read %d events after Close, more than the handoff holds", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("C() not closed after Close")
	}
	waitGoroutines(t, running)
	done := make(chan struct{})
	go func() {
		_ = sub.server.Close()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Server.Close hangs after a subscription closed with a backlog")
	}
}

func TestApplyAfterCloseIsNoop(t *testing.T) {
	sub := newDetachedSub(t, sortedSpec(), 4)
	if err := sub.Close(); err != nil {
		t.Fatal(err)
	}
	sub.apply(notif(core.MatchAdd, "k", 0, document.Document{"_id": "k"})) // must not panic
	sub.push(Event{Type: EventAdd})                                        // must not panic
	if _, open := <-sub.C(); open {
		t.Fatal("event delivered after Close")
	}
}

// TestResetClearsOriginDedupState covers the fresh-activation failover path:
// a replacement cluster (or a query whose node state TTL-expired during the
// outage) reuses the same Origin string with its seq counter restarted at
// zero. The bootstrap installed by reset supersedes all prior deliveries, so
// the stale seq history must not gate the new stream.
func TestResetClearsOriginDedupState(t *testing.T) {
	sub := newDetachedSub(t, sortedSpec(), 64)
	sub.installInitial(nil, 0)
	nextEvent(t, sub)

	// Pre-outage stream from matching-node origin "m3.0", seq up to 7.
	n := notif(core.MatchAdd, "a", 0, document.Document{"_id": "a", "n": int64(1)})
	n.Origin, n.Seq = "m3.0", 7
	sub.apply(n)
	if got := ids(sub.Result()); got != "a" {
		t.Fatalf("pre-outage add not applied: %s", got)
	}

	// Outage; re-subscription is a fresh activation. The new bootstrap
	// carries "a"; the recreated node then emits under the SAME origin with
	// seq restarted at 1.
	sub.reset([]core.ResultEntry{
		{Key: "a", Version: 1, Doc: document.Document{"_id": "a", "n": int64(1)}},
	}, 1)
	n = notif(core.MatchAdd, "b", 1, document.Document{"_id": "b", "n": int64(2)})
	n.Origin, n.Seq = "m3.0", 1
	sub.apply(n)
	if got := ids(sub.Result()); got != "a,b" {
		t.Fatalf("post-reset stream dropped by stale seq history: %s", got)
	}

	// An exact duplicate within the new stream is still suppressed.
	dup := notif(core.MatchAdd, "b", 0, document.Document{"_id": "b", "n": int64(2)})
	dup.Origin, dup.Seq = "m3.0", 1
	sub.apply(dup)
	if got := ids(sub.Result()); got != "a,b" {
		t.Fatalf("duplicate in new stream applied: %s", got)
	}
}

// TestResetPrefersNewerAppliedDoc covers the re-subscription race: a
// notification applied between the bootstrap query and reset() is newer than
// the bootstrap row, and the cluster's retention replay of it will be dropped
// as stale — so reset must keep the applied state, not regress to the
// bootstrap's.
func TestResetPrefersNewerAppliedDoc(t *testing.T) {
	sub := newDetachedSub(t, query.Spec{Collection: "c"}, 64)
	sub.installInitial([]core.ResultEntry{
		{Key: "a", Version: 1, Doc: document.Document{"_id": "a", "v": int64(1)}},
		{Key: "b", Version: 1, Doc: document.Document{"_id": "b"}},
	}, 1)
	nextEvent(t, sub)

	// Applied after the re-subscription bootstrap ran: a newer image of "a"
	// and a removal of "b".
	ch := notif(core.MatchChange, "a", -1, document.Document{"_id": "a", "v": int64(9)})
	ch.Version = 5
	sub.apply(ch)
	rm := notif(core.MatchRemove, "b", -1, nil)
	rm.Version = 4
	sub.apply(rm)

	// The bootstrap predates both notifications.
	sub.reset([]core.ResultEntry{
		{Key: "a", Version: 1, Doc: document.Document{"_id": "a", "v": int64(1)}},
		{Key: "b", Version: 1, Doc: document.Document{"_id": "b"}},
	}, 1)
	res := sub.Result()
	if got := ids(res); got != "a" {
		t.Fatalf("reset resurrected a removed doc or lost one: %s", got)
	}
	if res[0]["v"] != int64(9) {
		t.Fatalf("reset regressed doc to bootstrap image: %v", res[0])
	}
}

// TestInstallKeepsAKeyTheReadPredates: a notification applied between
// attach and the bootstrap install can add a key the bootstrap read
// predates. The install must keep it — the cell's retention replay of the
// same image is then dropped as stale — and must drop it when the read,
// taken at or after its version, did not return it.
func TestInstallKeepsAKeyTheReadPredates(t *testing.T) {
	for _, tc := range []struct {
		seq  uint64
		want string
	}{{4, "A,K"}, {5, "A"}} {
		sub := newDetachedSub(t, query.Spec{Collection: "c"}, 64)
		addK := func() {
			n := notif(core.MatchAdd, "K", -1, document.Document{"_id": "K"})
			n.Version = 5
			sub.apply(n)
		}
		addK()
		sub.installInitial([]core.ResultEntry{{Key: "A", Version: 1, Doc: document.Document{"_id": "A"}}}, tc.seq)
		addK() // the cell's replay of the same image
		if got := ids(sub.Result()); got != tc.want {
			t.Fatalf("read at seq %d: result %s, want %s", tc.seq, got, tc.want)
		}
	}
}

func TestInstallInitialAppliesWindowToSortedQuery(t *testing.T) {
	spec := query.Spec{Collection: "c", Sort: []query.SortKey{{Path: "n"}}, Offset: 1, Limit: 2}
	sub := newDetachedSub(t, spec, 16)
	// Bootstrap entries cover offset+limit+slack; the visible result is the
	// original window.
	var entries []core.ResultEntry
	for i := 0; i < 5; i++ {
		key := fmt.Sprintf("k%d", i)
		entries = append(entries, core.ResultEntry{
			Key: key, Version: uint64(i + 1),
			Doc: document.Document{"_id": key, "n": int64(i)},
		})
	}
	sub.installInitial(entries, 5)
	ev := <-sub.C()
	if ev.Type != EventInitial || len(ev.Docs) != 2 {
		t.Fatalf("initial event: %+v", ev)
	}
	if got := ids(sub.Result()); got != "k1,k2" {
		t.Fatalf("visible window = %s, want k1,k2", got)
	}
}

// TestSubscriptionIdleFootprint pins what a subscription costs to hold once
// its initial result is consumed, across the whole stack (cluster rows,
// routing tables, client-side state, event queue): a few KiB of heap and no
// goroutine. A channel of EventBuffer slots alone was 80 KiB.
func TestSubscriptionIdleFootprint(t *testing.T) {
	const subs = 2000
	e := newEnv(t, core.Options{}, Options{})
	heap := func() uint64 {
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	heapBefore, running := heap(), runtime.NumGoroutine()
	for i := 0; i < subs; i++ {
		sub, err := e.server.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{
			"n": map[string]any{"$gte": i, "$lt": i + 1},
		}})
		if err != nil {
			t.Fatal(err)
		}
		drainInitial(t, sub)
	}
	waitGoroutines(t, running)
	if per := (heap() - heapBefore) / subs; per > 12<<10 {
		t.Fatalf("an idle subscription holds %d bytes of heap, want at most 12 KiB", per)
	} else {
		t.Logf("%d bytes of heap per idle subscription", per)
	}
}
