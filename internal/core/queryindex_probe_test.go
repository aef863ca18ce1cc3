package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

// --- edge shapes -----------------------------------------------------------

// TestQueryIndexArrayValuesStabMultipleIntervals pins the implicit-array
// probe semantics: an array-valued field stabs the interval tree once per
// element, so one write can be a candidate for disjoint intervals at once.
func TestQueryIndexArrayValuesStabMultipleIntervals(t *testing.T) {
	qi := newQueryIndex()
	low := mkMatchQuery(t, rangeSpec(0, 10))
	high := mkMatchQuery(t, rangeSpec(100, 110))
	far := mkMatchQuery(t, rangeSpec(1000, 1010))
	qi.add(low)
	qi.add(high)
	qi.add(far)
	we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "n": []any{int64(5), int64(105)}},
	}}
	cands := qi.candidates(we, compositeKey("t", "c", "k"))
	if len(cands) != 2 {
		t.Fatalf("candidates = %d, want 2 (both stabbed intervals)", len(cands))
	}
	for _, mq := range []*matchQuery{low, high} {
		if _, ok := cands[mq.hash]; !ok {
			t.Fatalf("array element missed interval %v", mq.q)
		}
		if !mq.q.Match(we.Image.Doc) {
			t.Fatalf("sanity: query %v should match the array doc", mq.q)
		}
	}
}

// TestQueryIndexUnboundedIntervalsAtClampBoundary pins the stab fix for
// written values beyond the ±1e308 endpoint clamp: unbounded intervals are
// stored with ±1e308 sentinels, and a written value outside that range (the
// largest finite float64 is ~1.8e308) must still reach them.
func TestQueryIndexUnboundedIntervalsAtClampBoundary(t *testing.T) {
	qi := newQueryIndex()
	above := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"n": map[string]any{"$gte": int64(5)},
	}})
	below := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"n": map[string]any{"$lte": int64(5)},
	}})
	qi.add(above)
	qi.add(below)
	ck := compositeKey("t", "c", "k")

	cases := []struct {
		v    float64
		want *matchQuery
	}{
		{math.MaxFloat64, above},  // beyond the +1e308 clamp
		{-math.MaxFloat64, below}, // beyond the -1e308 clamp
		{unbounded, above},        // exactly at the sentinel
		{-unbounded, below},
	}
	for _, c := range cases {
		we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
			Doc: document.Document{"_id": "k", "n": c.v},
		}}
		if !c.want.q.Match(we.Image.Doc) {
			t.Fatalf("sanity: %g should match %v", c.v, c.want.q)
		}
		cands := qi.candidates(we, ck)
		if _, ok := cands[c.want.hash]; !ok {
			t.Fatalf("value %g missed its unbounded interval", c.v)
		}
		if len(cands) != 1 {
			t.Fatalf("value %g: candidates = %d, want 1", c.v, len(cands))
		}
	}
}

// --- superset property over random mixed filters ---------------------------

// randomIndexableSpec produces a random filter drawn from every indexable
// family plus unindexable shapes, exercising extraction, registration and
// probing together.
func randomIndexableSpec(rng *rand.Rand, i int) query.Spec {
	f := map[string]any{}
	switch rng.Intn(7) {
	case 0: // string equality
		f["cat"] = fmt.Sprintf("cat-%d", rng.Intn(8))
	case 1: // $in over scalars
		f["cat"] = map[string]any{"$in": []any{
			fmt.Sprintf("cat-%d", rng.Intn(8)),
			int64(rng.Intn(4)),
		}}
	case 2: // numeric interval (sometimes half-bounded)
		lo := rng.Intn(100)
		switch rng.Intn(3) {
		case 0:
			f["n"] = map[string]any{"$gte": int64(lo)}
		case 1:
			f["n"] = map[string]any{"$lt": int64(lo + 10)}
		default:
			f["n"] = map[string]any{"$gte": int64(lo), "$lt": int64(lo + 10)}
		}
	case 3: // geo circle
		f["loc"] = map[string]any{"$geoWithin": map[string]any{
			"$centerSphere": []any{
				[]any{rng.Float64()*4 - 2, rng.Float64()*4 - 2},
				0.0005 + rng.Float64()*0.002,
			},
		}}
	case 4: // geo box
		lng, lat := rng.Float64()*4-2, rng.Float64()*4-2
		f["loc"] = map[string]any{"$geoWithin": map[string]any{
			"$box": []any{[]any{lng, lat}, []any{lng + 0.3, lat + 0.3}},
		}}
	case 5: // text terms
		terms := fmt.Sprintf("topic%d", rng.Intn(6))
		if rng.Intn(2) == 0 {
			terms += fmt.Sprintf(" topic%d", rng.Intn(6))
		}
		f["$text"] = map[string]any{"$search": terms}
	default: // unindexable: must land in the unindexed set
		f["cat"] = map[string]any{"$ne": fmt.Sprintf("cat-%d", rng.Intn(8))}
	}
	// A distinct marker keeps every query's hash unique without adding a
	// more selective constraint ($exists is unindexable).
	f[fmt.Sprintf("marker%d", i)] = map[string]any{"$exists": false}
	return query.Spec{Collection: "c", Filter: f}
}

func randomProbeDoc(rng *rand.Rand) document.Document {
	d := document.Document{"_id": "k"}
	if rng.Intn(4) > 0 {
		if rng.Intn(5) == 0 { // array-valued field
			d["cat"] = []any{
				fmt.Sprintf("cat-%d", rng.Intn(8)),
				fmt.Sprintf("cat-%d", rng.Intn(8)),
			}
		} else {
			d["cat"] = fmt.Sprintf("cat-%d", rng.Intn(8))
		}
	}
	if rng.Intn(4) > 0 {
		switch rng.Intn(4) {
		case 0:
			d["n"] = []any{int64(rng.Intn(120) - 10), float64(rng.Intn(120) - 10)}
		case 1:
			d["n"] = float64(rng.Intn(1200))/10 - 10
		default:
			d["n"] = int64(rng.Intn(120) - 10)
		}
	}
	if rng.Intn(4) > 0 {
		d["loc"] = []any{rng.Float64()*4 - 2, rng.Float64()*4 - 2}
	}
	if rng.Intn(4) > 0 {
		d["desc"] = fmt.Sprintf("some topic%d and Topic%d text",
			rng.Intn(6), rng.Intn(6))
	}
	return d
}

// TestGeneralizedIndexAgreesWithFullScan is the correctness property of the
// whole generalized index: for random filters across every index family and
// random documents, the candidate set must contain every query the document
// matches (a superset is fine, a miss is a bug).
func TestGeneralizedIndexAgreesWithFullScan(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 25; round++ {
		qi := newQueryIndex()
		var all []*matchQuery
		for i := 0; i < 60; i++ {
			mq := mkMatchQuery(t, randomIndexableSpec(rng, i))
			all = append(all, mq)
			qi.add(mq)
		}
		for probe := 0; probe < 60; probe++ {
			doc := randomProbeDoc(rng)
			we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
				Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
				Doc: doc,
			}}
			cands := qi.candidates(we, compositeKey("t", "c", "k"))
			for _, mq := range all {
				if mq.q.Match(doc) {
					if _, ok := cands[mq.hash]; !ok {
						t.Fatalf("round %d probe %d: matching query %v missing from candidates for doc %v",
							round, probe, mq.q, doc)
					}
				}
			}
		}
		// Removal must leave no stale postings behind.
		for _, mq := range all {
			qi.remove(mq)
		}
		if qi.registered() != 0 || len(qi.unindexedSet()) != 0 || len(qi.buckets) != 0 {
			t.Fatalf("round %d: index not empty after removing every query", round)
		}
	}
}

// --- equality/geo/text family units ---------------------------------------

func TestQueryIndexEqualityFamily(t *testing.T) {
	qi := newQueryIndex()
	books := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{"cat": "books"}})
	games := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{"cat": "games"}})
	three := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{"cat": int64(3)}})
	qi.add(books)
	qi.add(games)
	qi.add(three)
	ck := compositeKey("t", "c", "k")

	mk := func(v any) *WriteEvent {
		return &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
			Doc: document.Document{"_id": "k", "cat": v},
		}}
	}
	cands := qi.candidates(mk("books"), ck)
	if len(cands) != 1 {
		t.Fatalf("candidates = %d, want only the matching equality", len(cands))
	}
	if _, ok := cands[books.hash]; !ok {
		t.Fatal("wrong equality candidate")
	}
	// int64 3 and float64 3.0 collide on the same hash key, as Compare
	// equates them.
	if cands := qi.candidates(mk(float64(3)), ck); len(cands) != 1 {
		t.Fatalf("float/int equality candidates = %d, want 1", len(cands))
	}
	// An array-valued field probes per element.
	if cands := qi.candidates(mk([]any{"x", "games"}), ck); len(cands) != 1 {
		t.Fatalf("array equality candidates = %d, want 1", len(cands))
	}
	if cands := qi.candidates(mk("nothing"), ck); len(cands) != 0 {
		t.Fatalf("non-matching value produced %d candidates", len(cands))
	}
}

func TestQueryIndexGeoFamily(t *testing.T) {
	qi := newQueryIndex()
	near := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"loc": map[string]any{"$geoWithin": map[string]any{
			"$centerSphere": []any{[]any{10.0, 20.0}, 0.001},
		}},
	}})
	farAway := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"loc": map[string]any{"$geoWithin": map[string]any{
			"$centerSphere": []any{[]any{-100.0, -40.0}, 0.001},
		}},
	}})
	qi.add(near)
	qi.add(farAway)
	if qi.registered() != 2 || len(qi.unindexedSet()) != 0 {
		t.Fatalf("geo queries not indexed: %d registered, %d unindexed",
			qi.registered(), len(qi.unindexedSet()))
	}
	ck := compositeKey("t", "c", "k")
	we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "loc": []any{10.0, 20.0}},
	}}
	cands := qi.candidates(we, ck)
	if _, ok := cands[near.hash]; !ok {
		t.Fatal("point inside the shape missed its geo query")
	}
	if _, ok := cands[farAway.hash]; ok {
		t.Fatal("distant geo query not pruned")
	}
	// GeoJSON-point form of the written field probes identically.
	we.Image.Doc["loc"] = map[string]any{"type": "Point", "coordinates": []any{10.0, 20.0}}
	if cands := qi.candidates(we, ck); len(cands) != 1 {
		t.Fatalf("GeoJSON probe candidates = %d, want 1", len(cands))
	}
	// A worldwide shape exceeds the cell cap and degrades to unindexed.
	world := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"loc": map[string]any{"$geoWithin": map[string]any{
			"$box": []any{[]any{-179.0, -89.0}, []any{179.0, 89.0}},
		}},
	}})
	qi.add(world)
	if _, ok := qi.unindexedSet()[world.hash]; !ok {
		t.Fatal("over-cap geo shape should fall back to unindexed")
	}
}

func TestQueryIndexTextFamily(t *testing.T) {
	qi := newQueryIndex()
	coffee := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"$text": map[string]any{"$search": "coffee espresso"},
	}})
	tea := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"$text": map[string]any{"$search": "tea"},
	}})
	qi.add(coffee)
	qi.add(tea)
	if qi.registered() != 2 || len(qi.unindexedSet()) != 0 {
		t.Fatalf("text queries not indexed: %d registered, %d unindexed",
			qi.registered(), len(qi.unindexedSet()))
	}
	ck := compositeKey("t", "c", "k")
	mk := func(desc string) *WriteEvent {
		return &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
			Doc: document.Document{"_id": "k", "desc": desc},
		}}
	}
	// OR semantics: one of the two terms suffices; case-insensitive; word
	// boundaries respected.
	cands := qi.candidates(mk("fresh Espresso beans"), ck)
	if _, ok := cands[coffee.hash]; !ok {
		t.Fatal("term probe missed its query")
	}
	if _, ok := cands[tea.hash]; ok {
		t.Fatal("unrelated text query not pruned")
	}
	if !coffee.q.Match(mk("fresh Espresso beans").Image.Doc) {
		t.Fatal("sanity: $text should match")
	}
	// "teapot" contains "tea" as a substring but not as a word: the token
	// probe must not produce the candidate, and the filter would not match.
	cands = qi.candidates(mk("teapot museum"), ck)
	if _, ok := cands[tea.hash]; ok {
		t.Fatal("substring token produced a false candidate")
	}
	// Nested values are scanned like collectText does.
	we := mk("")
	we.Image.Doc["meta"] = map[string]any{"tags": []any{"loose tea", int64(4)}}
	if _, ok := qi.candidates(we, ck)[tea.hash]; !ok {
		t.Fatal("nested string value missed the token probe")
	}

	// Phrase-only text queries stay unindexed: a phrase is a substring
	// condition token postings cannot serve ("shot dog" contains "hot dog").
	phrase := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"$text": map[string]any{"$search": `"hot dog"`},
	}})
	qi.add(phrase)
	if _, ok := qi.unindexedSet()[phrase.hash]; !ok {
		t.Fatal("phrase-only query should be unindexed")
	}
	if _, ok := qi.candidates(mk("a shot dogma"), ck)[phrase.hash]; !ok {
		t.Fatal("unindexed phrase query must always be probed")
	}
}

// TestQueryIndexSelectsMostSelectiveConstraint pins the ordering contract:
// a filter carrying both an equality and an interval registers under the
// equality, so writes with a different value on that field produce no
// candidate even when the interval would be stabbed.
func TestQueryIndexSelectsMostSelectiveConstraint(t *testing.T) {
	qi := newQueryIndex()
	mq := mkMatchQuery(t, query.Spec{Collection: "c", Filter: map[string]any{
		"cat": "books",
		"n":   map[string]any{"$gte": int64(0), "$lt": int64(100)},
	}})
	qi.add(mq)
	ck := compositeKey("t", "c", "k")
	we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "cat": "games", "n": int64(50)},
	}}
	if cands := qi.candidates(we, ck); len(cands) != 0 {
		t.Fatalf("equality-pruned write produced %d candidates", len(cands))
	}
	we.Image.Doc["cat"] = "books"
	if cands := qi.candidates(we, ck); len(cands) != 1 {
		t.Fatalf("matching equality produced %d candidates, want 1", len(cands))
	}
}

// --- allocation pin and benchmarks -----------------------------------------

func probeFixtureQueries(t testing.TB, qi *queryIndex, n int) []*matchQuery {
	var all []*matchQuery
	add := func(spec query.Spec) {
		q, err := query.Compile(spec)
		if err != nil {
			t.Fatal(err)
		}
		mq := &matchQuery{
			tenant: "t", q: q, hash: TenantQueryHash("t", q),
			tracked: map[string]uint64{},
		}
		qi.add(mq)
		all = append(all, mq)
	}
	for i := 0; i < n; i++ {
		switch i % 4 {
		case 0:
			add(rangeSpec(i*10, i*10+10))
		case 1:
			add(query.Spec{Collection: "c", Filter: map[string]any{
				"cat": fmt.Sprintf("cat-%d", i),
			}})
		case 2:
			add(query.Spec{Collection: "c", Filter: map[string]any{
				"loc": map[string]any{"$geoWithin": map[string]any{
					"$centerSphere": []any{
						[]any{float64(i%360) - 180, float64(i%170)/2 - 42},
						0.0005,
					},
				}},
			}})
		default:
			add(query.Spec{Collection: "c", Filter: map[string]any{
				"$text": map[string]any{"$search": fmt.Sprintf("topic%d extra%d", i, i)},
			}})
		}
	}
	return all
}

func probeFixtureEvent(n int64) *WriteEvent {
	return &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{
			"_id":  "k",
			"n":    n,
			"cat":  "cat-777",
			"loc":  []any{12.345, 45.678},
			"desc": "Some Topic42 description with filler words",
		},
	}}
}

// TestCandidateProbeNoAllocs pins the whole generalized probe — interval,
// equality, geo and text families together — at zero allocations per write
// once the scratch map and token buffer reached steady state.
func TestCandidateProbeNoAllocs(t *testing.T) {
	qi := newQueryIndex()
	probeFixtureQueries(t, qi, 1000)
	we := probeFixtureEvent(237)
	ck := compositeKey("t", "c", "k")
	scratch := map[uint64]*matchQuery{}
	// Warm: grows the scratch map, the token buffer, and triggers the lazy
	// interval-tree rebuild.
	for i := 0; i < 64; i++ {
		clear(scratch)
		qi.candidatesInto(we, ck, scratch)
	}
	if n := testing.AllocsPerRun(2000, func() {
		clear(scratch)
		qi.candidatesInto(we, ck, scratch)
	}); n != 0 {
		t.Fatalf("candidate probe allocates %.2f/op, want 0", n)
	}
}

// BenchmarkCandidateProbe measures the per-write candidate probe against
// 10k standing queries for each index family and a mixed population
// (bench-smoke tracks it alongside the fan-out and wire benchmarks).
func BenchmarkCandidateProbe(b *testing.B) {
	families := []struct {
		name string
		spec func(i int) query.Spec
	}{
		{"interval", func(i int) query.Spec { return rangeSpec(i*10, i*10+10) }},
		{"equality", func(i int) query.Spec {
			return query.Spec{Collection: "c", Filter: map[string]any{
				"cat": fmt.Sprintf("cat-%d", i),
			}}
		}},
		{"geo", func(i int) query.Spec {
			return query.Spec{Collection: "c", Filter: map[string]any{
				"loc": map[string]any{"$geoWithin": map[string]any{
					"$centerSphere": []any{
						[]any{float64(i%360) - 180, float64(i%170)/2 - 42},
						0.0005,
					},
				}},
			}}
		}},
		{"text", func(i int) query.Spec {
			return query.Spec{Collection: "c", Filter: map[string]any{
				"$text": map[string]any{"$search": fmt.Sprintf("topic%d", i)},
			}}
		}},
	}
	const queries = 10_000
	we := probeFixtureEvent(math.MaxInt32)
	ck := compositeKey("t", "c", "k")

	run := func(b *testing.B, qi *queryIndex) {
		scratch := map[uint64]*matchQuery{}
		clear(scratch)
		qi.candidatesInto(we, ck, scratch) // trigger lazy rebuilds outside the loop
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			clear(scratch)
			qi.candidatesInto(we, ck, scratch)
		}
	}

	for _, fam := range families {
		b.Run(fam.name, func(b *testing.B) {
			qi := newQueryIndex()
			for i := 0; i < queries; i++ {
				q := query.MustCompile(fam.spec(i))
				qi.add(&matchQuery{
					tenant: "t", q: q, hash: TenantQueryHash("t", q),
					tracked: map[string]uint64{},
				})
			}
			run(b, qi)
		})
	}
	b.Run("mixed", func(b *testing.B) {
		qi := newQueryIndex()
		probeFixtureQueries(b, qi, queries)
		run(b, qi)
	})
}
