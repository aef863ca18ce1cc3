package quaestor

import (
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

func newStack(t *testing.T) (*appserver.Server, *Cache) {
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
	db := storage.Open(storage.Options{})
	srv, err := appserver.New(db, bus, appserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	cache := New(srv, Options{})
	t.Cleanup(func() {
		_ = cache.Close()
		_ = srv.Close()
		cluster.Stop()
		_ = bus.Close()
	})
	return srv, cache
}

func spec() query.Spec {
	return query.Spec{Collection: "articles", Filter: map[string]any{"year": map[string]any{"$gte": 2018}}}
}

func TestCacheHitAfterMiss(t *testing.T) {
	srv, cache := newStack(t)
	if err := srv.Insert("articles", document.Document{"_id": "1", "year": 2020}); err != nil {
		t.Fatal(err)
	}
	r1, cached, err := cache.Query(spec())
	if err != nil || cached {
		t.Fatalf("first read: cached=%v err=%v", cached, err)
	}
	if len(r1) != 1 {
		t.Fatalf("result = %v", r1)
	}
	r2, cached, err := cache.Query(spec())
	if err != nil || !cached {
		t.Fatalf("second read should hit: cached=%v err=%v", cached, err)
	}
	if len(r2) != 1 {
		t.Fatalf("cached result = %v", r2)
	}
	hits, misses, _ := cache.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("stats: hits=%d misses=%d", hits, misses)
	}
}

func TestInvalidationOnWrite(t *testing.T) {
	srv, cache := newStack(t)
	if err := srv.Insert("articles", document.Document{"_id": "1", "year": 2020}); err != nil {
		t.Fatal(err)
	}
	if _, _, err := cache.Query(spec()); err != nil {
		t.Fatal(err)
	}
	// A relevant write must invalidate: the next read re-executes and sees
	// the new record (no stale cache served).
	if err := srv.Insert("articles", document.Document{"_id": "2", "year": 2021}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		result, cached, err := cache.Query(spec())
		if err != nil {
			t.Fatal(err)
		}
		if len(result) == 2 {
			if cached {
				// Fresh data may be served from cache only after a
				// revalidating miss filled it; both orders are fine as long
				// as the data is current.
			}
			_, _, inv := cache.Stats()
			if inv == 0 {
				t.Fatal("no invalidation recorded despite result change")
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("cache kept serving stale result")
}

func TestIrrelevantWriteKeepsCacheValid(t *testing.T) {
	srv, cache := newStack(t)
	_ = srv.Insert("articles", document.Document{"_id": "1", "year": 2020})
	_, _, _ = cache.Query(spec())
	// A write outside the result must not invalidate.
	if err := srv.Insert("articles", document.Document{"_id": "old", "year": 1999}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(150 * time.Millisecond)
	_, cached, err := cache.Query(spec())
	if err != nil || !cached {
		t.Fatalf("irrelevant write invalidated the cache: cached=%v err=%v", cached, err)
	}
}

func TestEvictionBeyondMaxEntries(t *testing.T) {
	srv, cache := newStack(t)
	cache.opts.MaxEntries = 3
	for i := 0; i < 6; i++ {
		s := query.Spec{Collection: "articles", Filter: map[string]any{"year": 2000 + i}}
		if _, _, err := cache.Query(s); err != nil {
			t.Fatal(err)
		}
	}
	if cache.Len() > 3 {
		t.Fatalf("cache grew to %d entries, cap 3", cache.Len())
	}
	_ = srv // keep the stack alive
}

func TestBadQueryRejected(t *testing.T) {
	_, cache := newStack(t)
	if _, _, err := cache.Query(query.Spec{}); err == nil {
		t.Fatal("bad query accepted")
	}
}

// TestRacingWriteDoesNotLeaveStaleHit: a write lands between a miss and its
// subscription. The cache holds the subscription's own read, which has the
// write, so at quiescence a hit equals the pull query. A cache that held a
// separate, earlier read would serve it as a hit indefinitely: the write is
// already in the subscription's bootstrap, so no notification invalidates it.
func TestRacingWriteDoesNotLeaveStaleHit(t *testing.T) {
	srv, cache := newStack(t)
	if err := srv.Insert("articles", document.Document{"_id": "1", "year": 2020}); err != nil {
		t.Fatal(err)
	}
	cache.afterMiss = func() {
		cache.afterMiss = nil
		if err := srv.Insert("articles", document.Document{"_id": "2", "year": 2021}); err != nil {
			t.Error(err)
		}
	}
	if _, _, err := cache.Query(spec()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // quiescence
	got, cached, err := cache.Query(spec())
	if err != nil {
		t.Fatal(err)
	}
	want, err := srv.Query(spec())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || !cached {
		t.Fatalf("read at quiescence: %d docs (cached=%v), pull query %d", len(got), cached, len(want))
	}
}

// TestStaleEntryRevalidates: once a write invalidated an entry, the next miss
// replaces it with its own read and subscription, and reads hit again.
func TestStaleEntryRevalidates(t *testing.T) {
	srv, cache := newStack(t)
	if _, _, err := cache.Query(spec()); err != nil {
		t.Fatal(err)
	}
	if err := srv.Insert("articles", document.Document{"_id": "1", "year": 2020}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for _, _, inv := cache.Stats(); inv == 0; _, _, inv = cache.Stats() {
		if time.Now().After(deadline) {
			t.Fatal("the write never invalidated the entry")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got, cached, err := cache.Query(spec()); err != nil || cached || len(got) != 1 {
		t.Fatalf("read after invalidation: %v (cached=%v, err %v), want a miss with 1 doc", got, cached, err)
	}
	if got, cached, err := cache.Query(spec()); err != nil || !cached || len(got) != 1 {
		t.Fatalf("read after the revalidating miss: %v (cached=%v, err %v), want a hit with 1 doc", got, cached, err)
	}
	if cache.Len() != 1 {
		t.Fatalf("%d entries, want 1", cache.Len())
	}
}
