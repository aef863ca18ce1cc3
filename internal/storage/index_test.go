package storage

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

// TestIndexAgreesWithMatcherOnEquality: an indexed Find returns exactly the
// documents the matcher accepts, on the equality rules where a hash of the
// value and $eq part ways — null also matching a missing field, int64 and
// float64 forms of one number at every magnitude, -0, multikey arrays.
func TestIndexAgreesWithMatcherOnEquality(t *testing.T) {
	docs := map[string]any{
		"a": nil,
		"b": document.Missing,
		"c": int64(1e15),
		"d": float64(1e15),
		"e": int64(1e16),
		"f": float64(1e16),
		"h": math.Copysign(0, -1),
		"i": int64(0),
		"j": "1",
		"k": []any{int64(7), "x"},
		"l": true,
		"m": []any{[]any{int64(7)}},
		"n": int64(1<<53 + 1),
		"o": int64(1 << 53),
	}
	c := newDB().C("c")
	if err := c.EnsureIndex("g"); err != nil {
		t.Fatal(err)
	}
	for id, v := range docs {
		d := document.Document{"_id": id}
		if !document.IsMissing(v) {
			d["g"] = v
		}
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		filter map[string]any
		want   string
	}{
		{map[string]any{"g": nil}, "[a b]"},
		{map[string]any{"g": map[string]any{"$eq": nil}}, "[a b]"},
		{map[string]any{"g": float64(1e15)}, "[c d]"},
		{map[string]any{"g": int64(1e15)}, "[c d]"},
		{map[string]any{"g": float64(1e16)}, "[e f]"},
		{map[string]any{"g": int64(1e16)}, "[e f]"},
		{map[string]any{"g": int64(0)}, "[h i]"},
		{map[string]any{"g": math.Copysign(0, -1)}, "[h i]"},
		{map[string]any{"g": "1"}, "[j]"},
		{map[string]any{"g": int64(1)}, "[]"},
		{map[string]any{"g": int64(7)}, "[k]"},
		{map[string]any{"g": map[string]any{"$eq": "x"}}, "[k]"},
		{map[string]any{"g": true}, "[l]"},
		{map[string]any{"g": float64(1 << 53)}, "[n o]"},
		{map[string]any{"g": int64(1 << 53)}, "[o]"},
		{map[string]any{"g": int64(1<<53 + 1)}, "[n]"},
	} {
		q := query.MustCompile(query.Spec{Collection: "c", Filter: tc.filter})
		got, err := c.Find(q)
		if err != nil {
			t.Fatal(err)
		}
		var ids, matched []string
		for _, d := range got {
			id, _ := d.ID()
			ids = append(ids, id)
		}
		for id, v := range docs {
			d := document.Document{"_id": id}
			if !document.IsMissing(v) {
				d["g"] = v
			}
			if q.Match(d) {
				matched = append(matched, id)
			}
		}
		sort.Strings(matched)
		if fmt.Sprint(ids) != tc.want || fmt.Sprint(matched) != tc.want {
			t.Errorf("%v: indexed Find %v, matcher %v, want %s", tc.filter, ids, matched, tc.want)
		}
	}
}

// TestAutoIndexOnPinnedPath: a query that pins a path builds the index it
// needs, up to maxAutoIndexes of them; explicit indexes do not count.
func TestAutoIndexOnPinnedPath(t *testing.T) {
	c := newDB().C("c")
	paths := []string{"a", "b", "c", "d", "e", "f"}
	for i := 0; i < 40; i++ {
		d := document.Document{"_id": fmt.Sprint(i)}
		for _, p := range paths {
			d[p] = int64(i % 4)
		}
		if _, err := c.Insert(d); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.EnsureIndex("f"); err != nil {
		t.Fatal(err)
	}
	find := func(filter map[string]any) int {
		n, err := c.Count(query.MustCompile(query.Spec{Collection: "c", Filter: filter}))
		if err != nil {
			t.Fatal(err)
		}
		return n
	}
	if n := find(map[string]any{"a": map[string]any{"$gte": 2}, "b": nil}); n != 0 || len(c.Indexes()) != 1 {
		t.Fatalf("range and null filters: %d matches, indexes %v; want 0, [f]", n, c.Indexes())
	}
	for _, p := range paths[:5] {
		if n := find(map[string]any{p: int64(1), "f": map[string]any{"$lt": 3}}); n != 10 {
			t.Fatalf("{%s: 1}: %d matches, want 10", p, n)
		}
	}
	if got := fmt.Sprint(c.Indexes()); got != "[a b c d f]" {
		t.Fatalf("Indexes() = %s, want the explicit f and %d automatic ones", got, maxAutoIndexes)
	}
	if n := find(map[string]any{"d": int64(2), "c": int64(2)}); n != 10 {
		t.Fatalf("two pinned paths: %d matches, want 10", n)
	}
}

// TestFindAndModifyIndexAllocBudget: keeping an index costs a write that
// leaves the indexed path alone nothing, not even an allocation.
func TestFindAndModifyIndexAllocBudget(t *testing.T) {
	measure := func(index string) float64 {
		c := newDB().C("c")
		if index != "" {
			if err := c.EnsureIndex(index); err != nil {
				t.Fatal(err)
			}
		}
		for i := 0; i < 100; i++ {
			d := nested(fmt.Sprint(i))
			d["g"] = int64(i % 10)
			if _, err := c.Insert(d); err != nil {
				t.Fatal(err)
			}
		}
		update := map[string]any{"$inc": map[string]any{"n": 1, "user.score": 1}}
		i := 0
		return testing.AllocsPerRun(200, func() {
			if _, err := c.FindAndModify(fmt.Sprint(i%100), update, false); err != nil {
				t.Fatal(err)
			}
			i++
		})
	}
	plain := measure("")
	for _, index := range []string{"g", "user.tags"} {
		if n := measure(index); n > plain {
			t.Errorf("FindAndModify with an index on %s: %.1f allocations, %.1f without", index, n, plain)
		}
	}
}

// TestQuickIndexedFindEqualsScan runs the differential check on random
// operation streams.
func TestQuickIndexedFindEqualsScan(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	for i := 0; i < 300; i++ {
		data := make([]byte, 400)
		rng.Read(data)
		checkIndexedFind(t, data)
		if t.Failed() {
			t.Fatalf("stream %d failed", i)
		}
	}
}

// FuzzIndexedFind: for any stream of inserts, replaces, updates, deletes and
// index builds, every pinned query reads through the index exactly what the
// full scan reads — keys, versions, order and documents.
func FuzzIndexedFind(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("\x00\x01\x02\x03\x04\x05\x06\x07\x08\x09\x0a\x0b\x0c\x0d\x0e\x0f"))
	f.Add([]byte("indexed find equals full scan, null and 1e15 included"))
	f.Fuzz(checkIndexedFind)
}

// choices reads decisions from a byte stream; past its end every choice
// is 0.
type choices struct {
	data []byte
	pos  int
}

func (c *choices) more() bool { return c.pos < len(c.data) }

func (c *choices) next(n int) int {
	if c.pos >= len(c.data) {
		return 0
	}
	b := c.data[c.pos]
	c.pos++
	return int(b) % n
}

// indexValues mixes every kind the index keys differently from the
// canonical encoding, and values no index holds.
var indexValues = []any{
	nil, int64(0), math.Copysign(0, -1), int64(1), float64(1), 1.5,
	int64(1e15), float64(1e15), int64(1 << 53), int64(1<<53 + 1), float64(1 << 53),
	"1", "x", true, false,
}

var indexPaths = []string{"g", "h", "a.b", "t", "_id"}

func (c *choices) value() any { return indexValues[c.next(len(indexValues))] }

// field sets or leaves out one field: a scalar, an array of scalars, an
// array in an array, or (for a) sub-documents under b.
func (c *choices) field(d document.Document, name string) {
	switch c.next(6) {
	case 0:
	case 1:
		d[name] = []any{c.value(), c.value()}
	case 2:
		d[name] = []any{[]any{c.value()}}
	case 3:
		if name == "a" {
			d[name] = []any{map[string]any{"b": c.value()}, map[string]any{"b": c.value()}}
			return
		}
		fallthrough
	default:
		if name == "a" {
			d[name] = map[string]any{"b": c.value()}
			return
		}
		d[name] = c.value()
	}
}

func (c *choices) doc(id string) document.Document {
	d := document.Document{"_id": id, "n": int64(c.next(8))}
	for _, f := range []string{"g", "h", "a", "t"} {
		c.field(d, f)
	}
	return d
}

func (c *choices) query() *query.Query {
	filter := map[string]any{}
	pin := func() {
		path := indexPaths[c.next(len(indexPaths))]
		v := c.value()
		if path == "_id" {
			v = fmt.Sprint(c.next(12))
		}
		if c.next(2) == 0 {
			filter[path] = v
		} else {
			filter[path] = map[string]any{"$eq": v}
		}
	}
	pin()
	if c.next(3) == 0 {
		pin()
	}
	if c.next(3) == 0 {
		filter["n"] = map[string]any{"$gte": int64(c.next(8))}
	}
	spec := query.Spec{Collection: "c", Filter: filter}
	if c.next(3) == 0 {
		spec.Sort = []query.SortKey{{Path: "n", Desc: c.next(2) == 0}}
		spec.Limit = c.next(4)
		spec.Offset = c.next(3)
	}
	if c.next(4) == 0 {
		spec.Projection = []string{"g", "n"}
	}
	return query.MustCompile(spec)
}

// checkIndexedFind drives one collection through a stream of writes and
// index builds; after each step a random pinned query must read the same
// through scan's index path (building indexes on its own as it goes) as
// through the full scan, and Count must agree.
func checkIndexedFind(t *testing.T, data []byte) {
	ch := &choices{data: data}
	c := Open(Options{Shards: 3}).C("c")
	key := func() string { return fmt.Sprint(ch.next(12)) }
	for ch.more() {
		switch ch.next(8) {
		case 0, 1:
			k := key()
			_, _ = c.Insert(ch.doc(k))
		case 2:
			k := key()
			_, _ = c.Replace(k, ch.doc(k))
		case 3:
			_, _ = c.FindAndModify(key(), map[string]any{"$set": map[string]any{indexPaths[ch.next(4)]: ch.value()}}, ch.next(2) == 0)
		case 4:
			_, _ = c.FindAndModify(key(), map[string]any{"$inc": map[string]any{"n": 1}, "$unset": map[string]any{"h": ""}}, false)
		case 5:
			_, _ = c.Delete(key())
		case 6:
			if err := c.EnsureIndex(indexPaths[ch.next(len(indexPaths))]); err != nil {
				t.Fatal(err)
			}
		}
		q := ch.query()
		got, want := c.find(q, true), c.find(q, false)
		if len(got) != len(want) {
			t.Fatalf("%s (indexes %v): indexed %d entries, scan %d", q, c.Indexes(), len(got), len(want))
		}
		for i := range got {
			if got[i].Key != want[i].Key || got[i].Version != want[i].Version || !reflect.DeepEqual(got[i].Doc, want[i].Doc) {
				t.Fatalf("%s (indexes %v): entry %d indexed %+v, scan %+v", q, c.Indexes(), i, got[i], want[i])
			}
		}
		n, _ := c.Count(q)
		all := 0
		c.scan(q, false, func(snap []scanned) { all += len(matchSnapshot(q, snap, nil)) })
		if n != all {
			t.Fatalf("%s (indexes %v): Count %d, scan %d", q, c.Indexes(), n, all)
		}
	}
}
