package core

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
)

func mkMatchQuery(t *testing.T, spec query.Spec) *matchQuery {
	t.Helper()
	q, err := query.Compile(spec)
	if err != nil {
		t.Fatal(err)
	}
	return &matchQuery{
		tenant: "t", q: q, hash: TenantQueryHash("t", q),
		subs: map[string]time.Time{}, tracked: map[string]uint64{},
	}
}

// compositeKey builds a record's tenant\x00collection\x00key composite the
// way the cell's key table does.
func compositeKey(tenant, collection, key string) string {
	return tenant + "\x00" + collection + "\x00" + key
}

func rangeSpec(lo, hi int) query.Spec {
	return query.Spec{Collection: "c", Filter: map[string]any{
		"n": map[string]any{"$gte": int64(lo), "$lt": int64(hi)},
	}}
}

func writeEvent(key string, n int64) *WriteEvent {
	return &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: key, Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": key, "n": n},
	}}
}

func TestQueryIndexStabbing(t *testing.T) {
	qi := newQueryIndex()
	var queries []*matchQuery
	for i := 0; i < 50; i++ {
		mq := mkMatchQuery(t, rangeSpec(i*10, i*10+10))
		queries = append(queries, mq)
		qi.add(mq)
	}
	we := writeEvent("k", 237)
	cands := qi.candidates(we, compositeKey("t", "c", "k"))
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want exactly the covering interval", len(cands))
	}
	if _, ok := cands[queries[23].hash]; !ok {
		t.Fatal("wrong candidate")
	}
	// A value outside every interval yields no candidates.
	if cands := qi.candidates(writeEvent("k", 9999), compositeKey("t", "c", "k")); len(cands) != 0 {
		t.Fatalf("out-of-range candidates = %d", len(cands))
	}
}

func TestQueryIndexOverlappingIntervals(t *testing.T) {
	qi := newQueryIndex()
	specs := []query.Spec{
		rangeSpec(0, 100),
		rangeSpec(50, 150),
		rangeSpec(90, 110),
		rangeSpec(200, 300),
	}
	for _, s := range specs {
		qi.add(mkMatchQuery(t, s))
	}
	cands := qi.candidates(writeEvent("k", 95), compositeKey("t", "c", "k"))
	if len(cands) != 3 {
		t.Fatalf("overlapping candidates = %d, want 3", len(cands))
	}
}

func TestQueryIndexBoundaries(t *testing.T) {
	qi := newQueryIndex()
	mq := mkMatchQuery(t, rangeSpec(10, 20)) // [10, 20)
	qi.add(mq)
	ck := compositeKey("t", "c", "k")
	if len(qi.candidates(writeEvent("k", 10), ck)) != 1 {
		t.Fatal("inclusive lower bound missed")
	}
	if len(qi.candidates(writeEvent("k", 20), ck)) != 0 {
		t.Fatal("exclusive upper bound hit")
	}
	if len(qi.candidates(writeEvent("k", 19), ck)) != 1 {
		t.Fatal("interior missed")
	}
}

func TestQueryIndexTrackersCoverDepartures(t *testing.T) {
	// A query must be probed for a key it tracks even when the new value
	// falls outside its interval (the record is leaving the result).
	qi := newQueryIndex()
	mq := mkMatchQuery(t, rangeSpec(0, 10))
	qi.add(mq)
	ck := compositeKey("t", "c", "k")
	qi.track("k", mq)
	cands := qi.candidates(writeEvent("k", 5000), ck)
	if _, ok := cands[mq.hash]; !ok {
		t.Fatal("tracker did not force the probing of a departing record's query")
	}
	qi.untrack("k", mq)
	if len(qi.candidates(writeEvent("k", 5000), ck)) != 0 {
		t.Fatal("untrack did not clear the tracker")
	}
}

func TestQueryIndexUnindexableQueriesAlwaysProbed(t *testing.T) {
	qi := newQueryIndex()
	regex := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"s": map[string]any{"$regex": "^x"},
	}})
	qi.add(regex)
	cands := qi.candidates(writeEvent("k", 1), compositeKey("t", "c", "k"))
	if _, ok := cands[regex.hash]; !ok {
		t.Fatal("unindexable query skipped")
	}
	qi.remove(regex)
	if len(qi.candidates(writeEvent("k", 1), compositeKey("t", "c", "k"))) != 0 {
		t.Fatal("removed query still probed")
	}
}

func TestQueryIndexRemove(t *testing.T) {
	qi := newQueryIndex()
	mq := mkMatchQuery(t, rangeSpec(0, 100))
	qi.add(mq)
	mq.tracked["k"] = 1 // remove finds the tracker sets through the query's own table
	qi.track("k", mq)
	qi.remove(mq)
	if len(qi.candidates(writeEvent("k", 50), compositeKey("t", "c", "k"))) != 0 {
		t.Fatal("removed query still a candidate")
	}
}

func TestQueryIndexTenantAndCollectionIsolation(t *testing.T) {
	qi := newQueryIndex()
	mq := mkMatchQuery(t, rangeSpec(0, 100))
	qi.add(mq)
	// Same value in another collection: no candidates.
	we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "other", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "n": int64(50)},
	}}
	if len(qi.candidates(we, compositeKey("t", "other", "k"))) != 0 {
		t.Fatal("collection leak")
	}
	// Another tenant.
	we2 := &WriteEvent{Tenant: "t2", Image: writeEvent("k", 50).Image}
	if len(qi.candidates(we2, compositeKey("t2", "c", "k"))) != 0 {
		t.Fatal("tenant leak")
	}
}

// TestQueryIndexAgreesWithFullScan is the correctness property: under random
// intervals and values, the candidate set must contain every query the full
// scan would find relevant (a superset is fine, a miss is a bug).
func TestQueryIndexAgreesWithFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 30; round++ {
		qi := newQueryIndex()
		var all []*matchQuery
		for i := 0; i < 40; i++ {
			lo := rng.Intn(1000)
			hi := lo + 1 + rng.Intn(200)
			mq := mkMatchQuery(t, rangeSpec(lo, hi))
			all = append(all, mq)
			qi.add(mq)
		}
		for probe := 0; probe < 50; probe++ {
			v := int64(rng.Intn(1400) - 100)
			we := writeEvent("k", v)
			cands := qi.candidates(we, compositeKey("t", "c", "k"))
			for _, mq := range all {
				if mq.q.Match(we.Image.Doc) {
					if _, ok := cands[mq.hash]; !ok {
						t.Fatalf("round %d: matching query missing from candidates for v=%d", round, v)
					}
				}
			}
		}
	}
}

func TestIndexIntervalExtraction(t *testing.T) {
	cases := []struct {
		name   string
		filter map[string]any
		ok     bool
		in     []float64
		out    []float64
	}{
		{"range", map[string]any{"n": map[string]any{"$gte": 5, "$lt": 10}}, true, []float64{5, 9.9}, []float64{4.9, 10}},
		{"eq number", map[string]any{"n": 7}, true, []float64{7}, []float64{6.9, 7.1}},
		{"explicit eq", map[string]any{"n": map[string]any{"$eq": 7}}, true, []float64{7}, []float64{8}},
		{"gt only", map[string]any{"n": map[string]any{"$gt": 3}}, true, []float64{3.1, 1e9}, []float64{3, 2}},
		{"lte only", map[string]any{"n": map[string]any{"$lte": 3}}, true, []float64{3, -1e9}, []float64{3.1}},
		{"string eq unindexable", map[string]any{"s": "x"}, false, nil, nil},
		{"regex unindexable", map[string]any{"s": map[string]any{"$regex": "x"}}, false, nil, nil},
		{"or unindexable", map[string]any{"$or": []any{map[string]any{"n": 1}}}, false, nil, nil},
		{"ne unindexable", map[string]any{"n": map[string]any{"$ne": 1}}, false, nil, nil},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			q := query.MustCompile(query.Spec{Collection: "c", Filter: c.filter})
			iv, ok := q.IndexInterval()
			if ok != c.ok {
				t.Fatalf("IndexInterval ok = %v, want %v", ok, c.ok)
			}
			for _, v := range c.in {
				if !iv.Contains(v) {
					t.Errorf("Contains(%v) = false, want true", v)
				}
			}
			for _, v := range c.out {
				if iv.Contains(v) {
					t.Errorf("Contains(%v) = true, want false", v)
				}
			}
		})
	}
}

// TestQueryIndexEndToEnd runs the full cluster with the index enabled and
// verifies notifications still flow correctly.
func TestQueryIndexEndToEnd(t *testing.T) {
	e := newAggEnvWith(t, Options{
		TickInterval:     20 * time.Millisecond,
		EnableQueryIndex: true,
	})
	spec := query.Spec{Collection: "items", Filter: map[string]any{
		"price": map[string]any{"$gte": 10, "$lt": 20},
	}}
	e.subscribe(spec, nil)
	time.Sleep(50 * time.Millisecond)
	e.write(document.OpInsert, "hit", document.Document{"_id": "hit", "price": 15})
	e.write(document.OpInsert, "miss", document.Document{"_id": "miss", "price": 50})
	n := e.nextNotification()
	if n.Type != MatchAdd || n.Key != "hit" {
		t.Fatalf("indexed cluster notification = %+v", n)
	}
	// Departure through the tracker path.
	e.write(document.OpUpdate, "hit", document.Document{"_id": "hit", "price": 99})
	n = e.nextNotification()
	if n.Type != MatchRemove || n.Key != "hit" {
		t.Fatalf("departure notification = %+v", n)
	}
}

// newAggEnvWith generalizes the aggregate test env to arbitrary options.
func newAggEnvWith(t *testing.T, opts Options) *aggEnv {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := NewCluster(bus, opts)
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

// nextNotification waits for the next non-heartbeat notification.
func (e *aggEnv) nextNotification() *Notification {
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
			return env.Notification
		case <-deadline:
			e.t.Fatal("timed out waiting for notification")
		}
	}
}

func TestIntervalTreeDegenerateIdenticalIntervals(t *testing.T) {
	// Many identical intervals must not break tree construction.
	qi := newQueryIndex()
	for i := 0; i < 20; i++ {
		spec := query.Spec{Collection: "c", Filter: map[string]any{
			"n": map[string]any{"$gte": 5, "$lt": 6},
			// Distinct identities via an unindexable predicate, so every
			// query lands in the interval tree with an identical interval.
			"x": map[string]any{"$ne": fmt.Sprintf("tag%d", i)},
		}}
		qi.add(mkMatchQuery(t, spec))
	}
	cands := qi.candidates(writeEvent("k", 5), compositeKey("t", "c", "k"))
	if len(cands) != 20 {
		t.Fatalf("identical-interval candidates = %d, want 20", len(cands))
	}
}

// unindexedSet gathers every bucket's residual (unindexable) queries.
func (qi *queryIndex) unindexedSet() map[uint64]*matchQuery {
	out := map[uint64]*matchQuery{}
	for _, b := range qi.buckets {
		for h, mq := range b.unindexed {
			out[h] = mq
		}
	}
	return out
}
