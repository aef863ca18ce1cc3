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

// newMatchHarness builds a matchBolt wired to a throwaway cluster whose
// topology is never started, so handler methods can be driven directly.
func newMatchHarness(t *testing.T, opts Options) *matchBolt {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := NewCluster(bus, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = bus.Close() })
	bolt := newMatchBolt(cluster).(*matchBolt)
	if err := bolt.Prepare(&topology.BoltContext{TaskID: 0}, nopCollector{}); err != nil {
		t.Fatal(err)
	}
	return bolt
}

func subscribeFor(b *matchBolt, q *query.Query, sid string, ttl time.Duration) {
	b.handleSubscribe(&subscribePayload{
		req:  &SubscribeRequest{Tenant: "t", SubscriptionID: sid},
		q:    q,
		hash: TenantQueryHash("t", q),
		ttl:  ttl,
	})
}

// TestHandleTickExpiresManyInOneTick pins the map-deletion-during-range
// semantics of handleTick: multiple subscriptions of multiple queries lapse
// within a single tick, and all of them — but only them — are expired, with
// the query index cleaned up alongside.
func TestHandleTickExpiresManyInOneTick(t *testing.T) {
	b := newMatchHarness(t, Options{EnableQueryIndex: true})
	for i := 0; i < 5; i++ {
		q := query.MustCompile(rangeSpec(i*10, i*10+10))
		ttl := 10 * time.Millisecond
		if i == 4 {
			ttl = time.Hour // the survivor
		}
		for s := 0; s < 3; s++ {
			subscribeFor(b, q, fmt.Sprintf("s%d-%d", i, s), ttl)
		}
	}
	if len(b.queries) != 5 {
		t.Fatalf("registered %d queries, want 5", len(b.queries))
	}
	b.handleTick(time.Now().Add(30 * time.Minute))
	if len(b.queries) != 1 {
		t.Fatalf("%d queries survive the tick, want 1", len(b.queries))
	}
	for _, mq := range b.queries {
		if len(mq.subs) != 3 {
			t.Fatalf("survivor holds %d subscriptions, want 3", len(mq.subs))
		}
	}
	// The index must have forgotten the expired queries: exactly one
	// registration remains.
	remaining := b.qindex.registered()
	if remaining != 1 || len(b.qindex.unindexedSet()) != 0 {
		t.Fatalf("index still holds %d registrations / %d unindexed after expiry",
			remaining, len(b.qindex.unindexedSet()))
	}
}

// TestQueryIndexRemoveLeavesOtherTrackersIntact is the regression test for
// queryIndex.remove: deregistering one query must drop exactly its own
// tracker entries, even when the node tracks many keys on behalf of other
// queries (the former implementation scanned — and could only be validated
// against — every tracker on the node).
func TestQueryIndexRemoveLeavesOtherTrackersIntact(t *testing.T) {
	qi := newQueryIndex()
	target := mkMatchQuery(t, rangeSpec(0, 10))
	qi.add(target)
	// track registers a record the way matchBolt.track does: in the query's
	// own table and in the index's tracker sets.
	track := func(mq *matchQuery, key string) {
		mq.tracked[key] = 1
		qi.track(key, mq)
	}
	track(target, "a")
	track(target, "b")
	var others []*matchQuery
	for i := 0; i < 20; i++ {
		spec := query.Spec{Collection: "c", Filter: map[string]any{
			"n":   map[string]any{"$gte": int64(0), "$lt": int64(10)},
			"tag": fmt.Sprintf("q%d", i), // distinct query identity
		}}
		mq := mkMatchQuery(t, spec)
		others = append(others, mq)
		qi.add(mq)
		for j := 0; j < 10; j++ {
			track(mq, fmt.Sprintf("k%d-%d", i, j))
		}
	}
	qi.remove(target)
	trackers := qi.buckets[bucketKey("t", "c")].trackers
	for _, key := range []string{"a", "b"} {
		if _, ok := trackers[key]; ok {
			t.Fatalf("tracker %q survives the removal of its only query", key)
		}
	}
	if len(trackers) != 20*10 {
		t.Fatalf("%d trackers remain, want %d", len(trackers), 20*10)
	}
	// Every other query is still forced into the candidate set for a key it
	// tracks, even with the write's value outside its interval.
	ck := compositeKey("t", "c", "k7-3")
	cands := qi.candidates(writeEvent("k7-3", 5000), ck)
	if _, ok := cands[others[7].hash]; !ok {
		t.Fatal("unrelated query lost its tracker entry")
	}
	if _, ok := cands[target.hash]; ok {
		t.Fatal("removed query still probed")
	}
}

// TestQueryBucketsStayConsistent drives the cell's per-(tenant, collection)
// grouping through subscribe, cancel and TTL expiry: every query sits at its
// recorded slot of exactly its own bucket, removal is a swap-delete that
// fixes the moved query's slot, an emptied bucket is dropped, and a write is
// evaluated against its own bucket's queries only — with or without the
// query index, whose residual (unindexable) queries are per bucket too.
func TestQueryBucketsStayConsistent(t *testing.T) {
	for _, indexed := range []bool{false, true} {
		b := newMatchHarness(t, Options{EnableQueryIndex: indexed})
		check := func(stage string, want map[string]int) {
			t.Helper()
			total := 0
			for key, qb := range b.buckets {
				if len(qb.queries) != want[key] {
					t.Fatalf("index=%v %s: bucket %q holds %d queries, want %d", indexed, stage, key, len(qb.queries), want[key])
				}
				for slot, mq := range qb.queries {
					if mq.bucket != qb || mq.slot != slot || b.queries[mq.hash] != mq || bucketKey(mq.tenant, mq.q.Collection) != key {
						t.Fatalf("index=%v %s: query %x misfiled (slot %d recorded %d)", indexed, stage, mq.hash, slot, mq.slot)
					}
				}
				total += len(qb.queries)
			}
			if total != len(b.queries) || len(b.buckets) != len(want) {
				t.Fatalf("index=%v %s: %d bucketed of %d queries in %d buckets, want %d buckets", indexed, stage, total, len(b.queries), len(b.buckets), len(want))
			}
		}
		var qs []*query.Query
		for i := 0; i < 6; i++ {
			spec := rangeSpec(i*10, i*10+10)
			if i%2 == 1 {
				// Unindexable: lands in the index's per-bucket residual set.
				spec.Filter = map[string]any{"n": map[string]any{"$ne": int64(i)}}
			}
			if i >= 4 {
				spec.Collection = "d"
			}
			q := query.MustCompile(spec)
			qs = append(qs, q)
			ttl := time.Hour
			if i == 2 {
				ttl = time.Millisecond
			}
			subscribeFor(b, q, "s", ttl)
		}
		check("subscribed", map[string]int{"t\x00c": 4, "t\x00d": 2})

		cancel := func(q *query.Query) {
			b.handleCancel(&CancelRequest{Tenant: "t", SubscriptionID: "s", QueryHash: TenantQueryHash("t", q)})
		}
		cancel(qs[0]) // first slot: the last query of the bucket moves into it
		check("cancelled head", map[string]int{"t\x00c": 3, "t\x00d": 2})
		b.handleTick(time.Now().Add(time.Minute)) // expires qs[2]
		check("expired", map[string]int{"t\x00c": 2, "t\x00d": 2})

		// A write to c is evaluated against c's two survivors (qs[1] and
		// qs[3], both unindexable), not against d's $ne query qs[5].
		before := b.c.mCandEvaluated.Value()
		b.handleWrite(writeEvent("k", 1000))
		if got := b.c.mCandEvaluated.Value() - before; got != 2 {
			t.Fatalf("index=%v: write to c evaluated %d queries, want 2", indexed, got)
		}

		cancel(qs[4])
		cancel(qs[5])
		check("bucket d emptied", map[string]int{"t\x00c": 2})
		if indexed && len(b.qindex.buckets) != 1 {
			t.Fatalf("index keeps %d buckets after d emptied, want 1", len(b.qindex.buckets))
		}
	}
}

// TestSubscribeReplaySkipsOtherCollections: the retention replay that closes
// the write-subscription race offers a new query only the retained images of
// its own (tenant, collection) — processImage itself no longer checks.
func TestSubscribeReplaySkipsOtherCollections(t *testing.T) {
	b := newMatchHarness(t, Options{})
	for i, coll := range []string{"c", "d", "c", "d"} {
		we := writeEvent(fmt.Sprintf("k%d", i), 5)
		we.Image.Collection = coll
		we.Image.Version = uint64(i + 1)
		b.handleWrite(we)
	}
	other := writeEvent("k0", 5)
	other.Tenant = "t2"
	other.Image.Version = 9
	b.handleWrite(other)

	before := b.c.mCandEvaluated.Value()
	q := query.MustCompile(rangeSpec(0, 10))
	subscribeFor(b, q, "s", time.Hour)
	if got := b.c.mCandEvaluated.Value() - before; got != 2 {
		t.Fatalf("replay evaluated %d retained images, want the 2 of tenant t / collection c", got)
	}
	mq := b.queries[TenantQueryHash("t", q)]
	if len(mq.tracked) != 2 || mq.tracked["k0"] != 1 || mq.tracked["k2"] != 3 {
		t.Fatalf("replay tracked %v, want k0@1 and k2@3", mq.tracked)
	}
}

// TestBootstrapRowsDoNotEnterKeyTable: the key table holds records the cell
// has seen written, and only a write's age prunes an entry. A bootstrap row
// installed for the index's tracker sets and never written again must
// therefore stay out of it — it used to be interned there for the life of
// the cell.
func TestBootstrapRowsDoNotEnterKeyTable(t *testing.T) {
	b := newMatchHarness(t, Options{EnableQueryIndex: true})
	q := query.MustCompile(rangeSpec(0, 10))
	hash := TenantQueryHash("t", q)
	const rows = 1000
	entries := make([]ResultEntry, rows)
	for i := range entries {
		key := fmt.Sprintf("k%04d", i)
		entries[i] = ResultEntry{Key: key, Version: uint64(i + 1), Doc: document.Document{"_id": key, "n": int64(5)}}
	}
	b.handleSubscribe(&subscribePayload{
		req: &SubscribeRequest{Tenant: "t", SubscriptionID: "s"}, q: q, hash: hash, ttl: time.Hour, entries: entries,
	})
	trackers := b.qindex.buckets[bucketKey("t", "c")].trackers
	if got := len(trackers); got != rows {
		t.Fatalf("%d tracker sets after the install, want %d", got, rows)
	}
	// A write to one of the rows is probed through its tracker set.
	b.handleWrite(&WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k0007", Version: rows + 1, Op: document.OpUpdate,
		Doc: document.Document{"_id": "k0007", "n": int64(500)},
	}})
	if _, still := b.queries[hash].tracked["k0007"]; still || len(trackers) != rows-1 {
		t.Fatalf("departing row still tracked (%v) or %d tracker sets, want %d", still, len(trackers), rows-1)
	}
	b.handleCancel(&CancelRequest{Tenant: "t", SubscriptionID: "s", QueryHash: hash})
	b.handleTick(b.now.Add(b.c.opts.RetentionTime + time.Minute))
	if len(b.keys.m) != 0 || len(b.qindex.buckets) != 0 {
		t.Fatalf("%d key-table entries and %d index buckets outlive the query and the retention window, want none",
			len(b.keys.m), len(b.qindex.buckets))
	}
}
