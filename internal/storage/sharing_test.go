package storage

import (
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

func nested(id string) document.Document {
	return document.Document{
		"_id": id, "n": 0, "w": "x",
		"user":  map[string]any{"score": 0, "tags": []any{"a", "b"}},
		"items": []any{map[string]any{"sku": "a1", "qty": 1}},
	}
}

// TestAfterImageSharesTheRecord pins the copy budget of a write: Normalize's
// private copy is what gets stored, and the after-image shares it (records
// are immutable once stored) instead of owning a third deep copy.
func TestAfterImageSharesTheRecord(t *testing.T) {
	c := newDB().C("c")
	same := func(a, b document.Document) bool {
		return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
	}
	stored := func() document.Document {
		s := c.shardFor("k")
		s.mu.RLock()
		defer s.mu.RUnlock()
		return s.docs["k"].doc
	}
	ins, err := c.Insert(nested("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !same(ins.Doc, stored()) {
		t.Fatal("insert after-image owns a copy of the stored document")
	}
	upd, err := c.FindAndModify("k", map[string]any{"$inc": map[string]any{"n": 1}}, false)
	if err != nil {
		t.Fatal(err)
	}
	if !same(upd.Doc, stored()) {
		t.Fatal("update after-image owns a copy of the stored document")
	}
	// The update worked on a clone: the insert's after-image, still held by
	// the oplog, must not have moved.
	if same(upd.Doc, ins.Doc) || ins.Doc["n"] != int64(0) || upd.Doc["n"] != int64(1) {
		t.Fatalf("update changed the previous record in place: insert image n=%v, update image n=%v", ins.Doc["n"], upd.Doc["n"])
	}
	rep, err := c.Replace("k", nested("k"))
	if err != nil {
		t.Fatal(err)
	}
	if !same(rep.Doc, stored()) {
		t.Fatal("replace after-image owns a copy of the stored document")
	}
}

// TestReadsReturnPrivateCopies: what Get, Find and FindEntries hand out can
// be mutated freely, nested values included, without reaching the store or
// the logged after-images.
func TestReadsReturnPrivateCopies(t *testing.T) {
	db := newDB()
	c := db.C("c")
	ai, err := c.Insert(nested("k"))
	if err != nil {
		t.Fatal(err)
	}
	scribble := func(d document.Document) {
		d["w"] = "scribbled"
		d["user"].(map[string]any)["score"] = int64(99)
		d["user"].(map[string]any)["tags"].([]any)[0] = "scribbled"
		d["items"].([]any)[0].(map[string]any)["qty"] = int64(99)
	}
	got, _, _ := c.Get("k")
	scribble(got)
	q := query.MustCompile(query.Spec{Collection: "c"})
	docs, err := c.Find(q)
	if err != nil || len(docs) != 1 {
		t.Fatalf("Find: %v, %d docs", err, len(docs))
	}
	scribble(docs[0])
	entries, _ := c.FindEntries(q)
	scribble(entries[0].Doc)
	cur := c.NewChunkCursor(q)
	chunk, _ := cur.Next(10)
	scribble(chunk[0].Doc)

	want := document.Normalize(nested("k"))
	if fresh, _, _ := c.Get("k"); !document.Equal(map[string]any(fresh), map[string]any(want)) {
		t.Fatalf("mutating read results reached the store: %v", fresh)
	}
	if !document.Equal(map[string]any(ai.Doc), map[string]any(want)) {
		t.Fatalf("mutating read results reached the after-image: %v", ai.Doc)
	}
}

// TestSharedAfterImagesUnderConcurrentUpdates hammers FindAndModify on one
// key while an oplog tailer reads every after-image's document and a scan
// reads the collection. Run under -race (make race): the after-images share
// the stored records, so any in-place mutation of a stored document would
// be a reported race here.
func TestSharedAfterImagesUnderConcurrentUpdates(t *testing.T) {
	concurrentUpdates(t, "")
}

// TestIndexedFindUnderConcurrentUpdates is the same with the scanned path
// indexed before the first write: every update re-files the key, and a Find
// between taking it out of its bucket and putting it back found nothing.
func TestIndexedFindUnderConcurrentUpdates(t *testing.T) {
	concurrentUpdates(t, "user.tags")
}

func concurrentUpdates(t *testing.T, index string) {
	db := Open(Options{Shards: 2, OplogCapacity: 4096})
	c := db.C("c")
	if index != "" {
		if err := c.EnsureIndex(index); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Insert(nested("k")); err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 4, 200
	tail := db.Oplog().Tail(0)
	defer tail.Close()
	q := query.MustCompile(query.Spec{Collection: "c", Filter: map[string]any{"user.tags": "a"}})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() { // scanner
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			docs, err := c.Find(q)
			if err != nil || len(docs) != 1 {
				t.Errorf("Find during updates: %v, %d docs", err, len(docs))
				return
			}
		}
	}()
	tailed := make(chan int, 1)
	go func() { // tailer: reads every logged document in full
		n := 0
		for n < 1+writers*perWriter {
			ai, err := tail.Next()
			if err != nil {
				break
			}
			if !strings.HasPrefix(string(document.MarshalCanonical(ai.Doc)), "{") {
				t.Errorf("tailed after-image %d is not an object", ai.Version)
			}
			n++
		}
		tailed <- n
	}()
	var writersWG sync.WaitGroup
	for w := 0; w < writers; w++ {
		writersWG.Add(1)
		go func(w int) {
			defer writersWG.Done()
			for i := 0; i < perWriter; i++ {
				up := map[string]any{
					"$inc":  map[string]any{"n": 1, "user.score": 1},
					"$set":  map[string]any{"w": fmt.Sprintf("w%d-%d", w, i)},
					"$push": map[string]any{"items": map[string]any{"sku": "p", "qty": i}},
				}
				if i%2 == 1 {
					up = map[string]any{"$inc": map[string]any{"n": 1, "user.score": 1}, "$pop": map[string]any{"items": 1}}
				}
				if _, err := c.FindAndModify("k", up, false); err != nil {
					t.Errorf("FindAndModify: %v", err)
					return
				}
			}
		}(w)
	}
	writersWG.Wait()
	if n := <-tailed; n != 1+writers*perWriter {
		t.Errorf("tailer saw %d after-images, want %d", n, 1+writers*perWriter)
	}
	close(stop)
	wg.Wait()
	if d, _, _ := c.Get("k"); d["n"] != int64(writers*perWriter) {
		t.Fatalf("n = %v after %d increments", d["n"], writers*perWriter)
	}
}

// TestInsertAllocBudget: one insert of a nested ~1 KiB document (seven maps
// and slices) costs the Normalize copy plus bookkeeping — not three deep
// copies (50 allocations before the after-image shared the record).
func TestInsertAllocBudget(t *testing.T) {
	c := Open(Options{}).C("c")
	docs := make([]document.Document, 300)
	for i := range docs {
		docs[i] = document.Document{
			"_id": fmt.Sprintf("d%d", i), "h": float64(i % 100), "n": float64(0), "w": "~7~",
			"user": map[string]any{
				"name": "u123", "score": float64(0),
				"geo":  map[string]any{"lat": float64(12), "lon": float64(-45)},
				"tags": []any{"alpha", "beta", "gamma"},
			},
			"items": []any{
				map[string]any{"sku": "a1", "qty": float64(1), "price": 9.5},
				map[string]any{"sku": "b2", "qty": float64(2), "price": 19.25},
				map[string]any{"sku": "c3", "qty": float64(3), "price": float64(4)},
			},
			"pad": strings.Repeat("w", 620),
		}
	}
	i := 0
	n := testing.AllocsPerRun(len(docs)-1, func() {
		if _, err := c.Insert(docs[i]); err != nil {
			t.Fatal(err)
		}
		i++
	})
	if n > 30 {
		t.Fatalf("insert of a nested document costs %.0f allocations, budget 30", n)
	}
	t.Logf("insert: %.1f allocs", n)
}

// TestFindSortWindowOnMixedBracketKeys: sort + limit through the compiled
// comparator yields MongoDB's bracket order — missing, null, numbers,
// strings, objects, arrays, booleans — with numbers compared across
// int64/float64 and the primary key breaking ties.
func TestFindSortWindowOnMixedBracketKeys(t *testing.T) {
	c := newDB().C("c")
	rows := []struct {
		id string
		k  any
	}{
		{"bool-t", true}, {"str-b", "b"}, {"num-2", 2}, {"arr", []any{1}}, {"null", nil},
		{"num-1.5", 1.5}, {"obj", map[string]any{"x": 1}}, {"bool-f", false}, {"str-a", "a"},
		{"num-2f", 2.0}, {"missing", document.Missing},
	}
	for _, r := range rows {
		d := document.Document{"_id": r.id, "s": map[string]any{}}
		if !document.IsMissing(r.k) {
			d["s"] = map[string]any{"k": r.k}
		}
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	asc := []string{"missing", "null", "num-1.5", "num-2", "num-2f", "str-a", "str-b", "obj", "arr", "bool-f", "bool-t"}
	ids := func(spec query.Spec) []string {
		docs, err := c.Find(query.MustCompile(spec))
		if err != nil {
			t.Fatal(err)
		}
		out := make([]string, len(docs))
		for i, d := range docs {
			out[i] = d["_id"].(string)
		}
		return out
	}
	if got := ids(query.Spec{Collection: "c", Sort: []query.SortKey{{Path: "s.k"}}}); !reflect.DeepEqual(got, asc) {
		t.Fatalf("ascending order = %v\nwant %v", got, asc)
	}
	if got, want := ids(query.Spec{Collection: "c", Sort: []query.SortKey{{Path: "s.k"}}, Offset: 2, Limit: 4}), asc[2:6]; !reflect.DeepEqual(got, want) {
		t.Fatalf("window [2,6) = %v, want %v", got, want)
	}
	// Descending flips the key order but not the primary-key tiebreak.
	desc := []string{"bool-t", "bool-f", "arr", "obj", "str-b", "str-a", "num-2", "num-2f", "num-1.5", "null", "missing"}
	if got, want := ids(query.Spec{Collection: "c", Sort: []query.SortKey{{Path: "s.k", Desc: true}}, Limit: 9}), desc[:9]; !reflect.DeepEqual(got, want) {
		t.Fatalf("descending top 9 = %v, want %v", got, want)
	}
}

// TestFindEntriesAllocBudget: a read copies the rows it returns, not the rows
// it considers. A sorted `limit 5` over 1 000 matching nested documents is
// matched, sorted and cut on the stored records and then copies five of
// them; so does a projected one, and an unsorted window orders by key.
func TestFindEntriesAllocBudget(t *testing.T) {
	c := newDB().C("c")
	const matches = 1000
	for i := 0; i < matches; i++ {
		d := nested(fmt.Sprintf("k%04d", i))
		d["n"] = int64((i * 7919) % matches)
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	oneCopy := testing.AllocsPerRun(100, func() { nested("x").Clone() }) / 2 // nested builds one, Clone another
	for name, spec := range map[string]query.Spec{
		"sorted":    {Collection: "c", Sort: []query.SortKey{{Path: "n"}}, Limit: 5, Offset: 10},
		"projected": {Collection: "c", Sort: []query.SortKey{{Path: "n"}}, Limit: 5, Projection: []string{"user.score"}},
		"by key":    {Collection: "c", Limit: 5},
	} {
		q := query.MustCompile(spec)
		var got []Entry
		n := testing.AllocsPerRun(10, func() { got, _ = c.FindEntries(q) })
		if len(got) != 5 {
			t.Fatalf("%s: %d entries, want 5", name, len(got))
		}
		// Five copies plus the scan's own slices, which grow by doubling.
		t.Logf("%s: %.0f allocations (one copy is %.0f)", name, n, oneCopy)
		if budget := 5*oneCopy + 60; n > budget {
			t.Errorf("%s: limit 5 over %d matches costs %.0f allocations, budget %.0f (one copy is %.0f)", name, matches, n, budget, oneCopy)
		}
	}
	if got, _ := c.FindEntries(query.MustCompile(query.Spec{Collection: "c", Limit: 3, Offset: 1})); got[0].Key != "k0001" || got[2].Key != "k0003" {
		t.Fatalf("unsorted window = %s..%s, want k0001..k0003", got[0].Key, got[2].Key)
	}
}
