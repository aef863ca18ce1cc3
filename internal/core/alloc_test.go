package core

import (
	"reflect"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

// allocSink keeps key-table lookups from being optimized away.
var allocSink string

// TestKeyTableNoAllocs pins the key table's contract: a record the cell has
// seen written costs one lookup and one store per write and no allocation
// (its composite key comes back with the entry); a record it has not seen
// costs the one string that becomes its key — and does not enter the table
// unless the caller puts it there.
func TestKeyTableNoAllocs(t *testing.T) {
	kt := keyTable{m: map[string]keyState{}}
	st := kt.get("tenant-a", "items", "user:12345")
	if st.ck != compositeKey("tenant-a", "items", "user:12345") || st.version != 0 || len(kt.m) != 0 {
		t.Fatalf("first sight: state %+v, %d entries; want a zero state under the composite key and an empty table", st, len(kt.m))
	}
	st.version = 1
	kt.put(st)
	if n := testing.AllocsPerRun(1000, func() {
		st := kt.get("tenant-a", "items", "user:12345")
		st.version++
		kt.put(st)
		allocSink = st.ck
	}); n != 0 {
		t.Fatalf("a write to a known key costs %.2f allocs/op in the key table, want 0", n)
	}
	if got := kt.get("tenant-a", "items", "user:12345").version; got != 1002 || len(kt.m) != 1 {
		t.Fatalf("version %d in %d entries, want 1002 in 1", got, len(kt.m))
	}
}

// TestHandleWriteFilteredNoAllocs pins the steady-state cost of the two
// write paths the per-node throughput budget is spent on:
//
//   - a write no registered query could match (the query index prunes every
//     candidate before a single filter evaluation) completes with zero
//     allocations — this covers the //invalidb:hotpath chain handleWrite →
//     keyTable.get → candidatesInto;
//   - a stale replay (version not newer than the staleness table's) is
//     dropped with zero allocations.
//
// Matching writes allocate by design: they emit a notification. The emit
// path's budget is pinned by BenchmarkFanOutRouting (make bench-smoke).
func TestHandleWriteFilteredNoAllocs(t *testing.T) {
	b := newMatchHarness(t, Options{EnableQueryIndex: true})
	// One indexed query on collection "c"; the measured writes target
	// collection "d", so the index probe never reaches a filter.
	subscribeFor(b, query.MustCompile(rangeSpec(0, 10)), "s1", 1000*time.Hour)

	we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "d", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "n": int64(50)},
	}}
	// Warm up past the measured iteration count so the retention ring, the
	// key table and the candidate scratch map reach their steady-state
	// capacity.
	for i := 0; i < 4096; i++ {
		we.Image.Version++
		b.handleWrite(we)
	}
	// Prune retained images so the measured pushes reuse ring capacity; the
	// tick also evicts the key's table entry, so re-warm briefly after it.
	b.handleTick(b.now.Add(b.c.opts.RetentionTime + time.Minute))
	for i := 0; i < 16; i++ {
		we.Image.Version++
		b.handleWrite(we)
	}

	if n := testing.AllocsPerRun(2000, func() {
		we.Image.Version++
		b.handleWrite(we)
	}); n != 0 {
		t.Fatalf("index-filtered write allocates %.2f/op, want 0", n)
	}

	if n := testing.AllocsPerRun(2000, func() {
		b.handleWrite(we) // version unchanged: staleness dedup path
	}); n != 0 {
		t.Fatalf("stale-replay write allocates %.2f/op, want 0", n)
	}
}

// TestHandleWriteFullScanNoAllocs pins the default (index-off) matching
// loop: a write is evaluated against the queries of its own (tenant,
// collection) bucket and no others, and evaluating a non-matching query
// allocates nothing — compiled paths, value-by-value predicates, one
// tracked lookup per query (DESIGN.md §7, "Compiled evaluation").
func TestHandleWriteFullScanNoAllocs(t *testing.T) {
	b := newMatchHarness(t, Options{})
	const perCollection = 1000
	for i := 0; i < perCollection; i++ {
		// Ranges the written value (n = 5) never falls in; every other query
		// also carries a nested-path and a $in predicate.
		spec := rangeSpec(100+i, 110+i)
		if i%2 == 1 {
			spec.Filter["user.geo.lat"] = map[string]any{"$gt": float64(i)}
			spec.Filter["tag"] = map[string]any{"$in": []any{"x", float64(i)}}
		}
		subscribeFor(b, query.MustCompile(spec), "s", 1000*time.Hour)
		spec.Collection = "other"
		subscribeFor(b, query.MustCompile(spec), "s", 1000*time.Hour)
	}
	if len(b.queries) != 2*perCollection || len(b.buckets) != 2 {
		t.Fatalf("%d queries in %d buckets, want %d in 2", len(b.queries), len(b.buckets), 2*perCollection)
	}
	we := &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
		Doc: document.Document{"_id": "k", "n": int64(5), "tag": "y",
			"user": map[string]any{"geo": map[string]any{"lat": float64(-1)}}},
	}}
	for i := 0; i < 4096; i++ { // steady-state capacity, as in the filtered test
		we.Image.Version++
		b.handleWrite(we)
	}
	b.handleTick(b.now.Add(b.c.opts.RetentionTime + time.Minute))
	for i := 0; i < 16; i++ {
		we.Image.Version++
		b.handleWrite(we)
	}

	before := b.slot.evaluated.Load()
	const runs = 200
	n := testing.AllocsPerRun(runs, func() {
		we.Image.Version++
		b.handleWrite(we)
	})
	if n != 0 {
		t.Fatalf("full-scan write over %d queries allocates %.2f/op, want 0", perCollection, n)
	}
	// AllocsPerRun calls the function runs+1 times (one warm-up).
	if got := b.slot.evaluated.Load() - before; got != (runs+1)*perCollection {
		t.Fatalf("evaluated %d candidates over %d writes, want %d per write (the other collection's %d queries must not be visited)",
			got, runs+1, perCollection, perCollection)
	}
}

// TestIngestDoesNotCopyDecodedImage: DecodeWire is the door documents enter
// the cluster by and yields canonical values by construction, so the engine's
// DecodeImage validates and hands the very same document on, without
// re-allocating its maps and slices.
func TestIngestDoesNotCopyDecodedImage(t *testing.T) {
	env := &Envelope{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
		Collection: "c", Key: "k", Version: 3, Op: document.OpUpdate,
		Doc: document.Document{"_id": "k", "n": int64(5), "f": 2.5,
			"user":  map[string]any{"tags": []any{"a", int64(1)}},
			"items": []any{map[string]any{"qty": int64(2)}}},
	}}}
	data, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeWire(data)
	if err != nil {
		t.Fatal(err)
	}
	in := dec.Write.Image
	doc := in.Doc
	var out *document.AfterImage
	if n := testing.AllocsPerRun(100, func() {
		if out, err = (MongoEngine{}).DecodeImage(in); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("DecodeImage allocates %.0f/op on an already decoded image, want 0", n)
	}
	if reflect.ValueOf(out.Doc).Pointer() != reflect.ValueOf(doc).Pointer() {
		t.Error("DecodeImage copied the document")
	}
	if out.Doc["n"] != int64(5) || out.Doc["items"].([]any)[0].(map[string]any)["qty"] != int64(2) {
		t.Errorf("decoded image is not canonical: %#v", out.Doc)
	}
	if _, err := (MongoEngine{}).DecodeImage(&document.AfterImage{Collection: "c", Key: "k", Op: document.OpInsert}); err == nil {
		t.Error("DecodeImage accepted an after-image with no version and no document")
	}
}
