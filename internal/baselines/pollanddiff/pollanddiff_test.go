package pollanddiff

import (
	"fmt"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

func recvEvent(t *testing.T, sub *Subscription, want core.MatchType) Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		select {
		case ev, ok := <-sub.C():
			if !ok {
				t.Fatal("subscription closed")
			}
			if ev.Type == want {
				return ev
			}
		case <-deadline:
			t.Fatalf("timed out waiting for %v", want)
		}
	}
}

func TestPollAndDiffDetectsChanges(t *testing.T) {
	db := storage.Open(storage.Options{})
	e := New(db, Options{Interval: 20 * time.Millisecond})
	defer e.Close()
	_, _ = db.C("c").Insert(document.Document{"_id": "a", "x": 1})

	sub, err := e.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	// Add.
	_, _ = db.C("c").Insert(document.Document{"_id": "b", "x": 1})
	if ev := recvEvent(t, sub, core.MatchAdd); ev.Key != "b" {
		t.Fatalf("add = %+v", ev)
	}
	// Change.
	_, _ = db.C("c").FindAndModify("b", map[string]any{"$set": map[string]any{"note": "hi"}}, false)
	recvEvent(t, sub, core.MatchChange)
	// Remove via update-out.
	_, _ = db.C("c").FindAndModify("a", map[string]any{"$set": map[string]any{"x": 2}}, false)
	if ev := recvEvent(t, sub, core.MatchRemove); ev.Key != "a" {
		t.Fatalf("remove = %+v", ev)
	}
	// Remove via delete.
	_, _ = db.C("c").Delete("b")
	recvEvent(t, sub, core.MatchRemove)
}

func TestPollAndDiffSortedChangeIndex(t *testing.T) {
	db := storage.Open(storage.Options{})
	e := New(db, Options{Interval: 20 * time.Millisecond})
	defer e.Close()
	for i := 0; i < 4; i++ {
		_, _ = db.C("c").Insert(document.Document{"_id": fmt.Sprint(i), "n": i})
	}
	sub, err := e.Subscribe(query.Spec{Collection: "c", Sort: []query.SortKey{{Path: "n"}}, Limit: 4})
	if err != nil {
		t.Fatal(err)
	}
	_, _ = db.C("c").FindAndModify("0", map[string]any{"$set": map[string]any{"n": 10}}, false)
	ev := recvEvent(t, sub, core.MatchChangeIndex)
	if ev.Key != "0" || ev.Index != 3 {
		t.Fatalf("changeIndex = %+v", ev)
	}
}

// TestPollAndDiffDBOverhead checks the paper's §3.1 arithmetic: N
// subscriptions at interval T produce N/T pull queries per second against
// the database (1 000 subscriptions at 10s = 100 queries/s).
func TestPollAndDiffDBOverhead(t *testing.T) {
	db := storage.Open(storage.Options{})
	e := New(db, Options{Interval: 50 * time.Millisecond})
	defer e.Close()
	const subs = 20
	for i := 0; i < subs; i++ {
		if _, err := e.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": i}}); err != nil {
			t.Fatal(err)
		}
	}
	before, start := e.DBQueries.Value(), time.Now()
	time.Sleep(500 * time.Millisecond)
	rate := float64(e.DBQueries.Value()-before) / time.Since(start).Seconds()
	// Expected: subs / interval = 20 / 0.05s = 400 queries/s. Allow wide
	// scheduling tolerance.
	if rate < 200 || rate > 600 {
		t.Fatalf("poll overhead = %.0f queries/s, expected ~400", rate)
	}
	if e.ActiveSubscriptions() != subs {
		t.Fatalf("active = %d", e.ActiveSubscriptions())
	}
}

// TestPollAndDiffStalenessBoundedByInterval demonstrates the approach's
// defining weakness: a write is invisible until the next poll.
func TestPollAndDiffStalenessBoundedByInterval(t *testing.T) {
	db := storage.Open(storage.Options{})
	interval := 150 * time.Millisecond
	e := New(db, Options{Interval: interval})
	defer e.Close()
	sub, err := e.Subscribe(query.Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	_, _ = db.C("c").Insert(document.Document{"_id": "k", "x": 1})
	recvEvent(t, sub, core.MatchAdd)
	lag := time.Since(start)
	if lag > interval+100*time.Millisecond {
		t.Fatalf("staleness %v beyond interval bound", lag)
	}
	if lag < 10*time.Millisecond {
		t.Fatalf("suspiciously instant notification (%v) for a polling engine", lag)
	}
}

func TestPollAndDiffRejectsBadQuery(t *testing.T) {
	e := New(storage.Open(storage.Options{}), Options{})
	defer e.Close()
	if _, err := e.Subscribe(query.Spec{}); err == nil {
		t.Fatal("bad query accepted")
	}
}

func TestPollAndDiffCloseIdempotent(t *testing.T) {
	e := New(storage.Open(storage.Options{}), Options{Interval: 10 * time.Millisecond})
	sub, _ := e.Subscribe(query.Spec{Collection: "c"})
	sub.Close()
	sub.Close()
	e.Close()
	e.Close()
	if _, err := e.Subscribe(query.Spec{Collection: "c"}); err == nil {
		t.Fatal("subscribe after close accepted")
	}
}
