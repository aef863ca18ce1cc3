package query

import (
	"encoding/json"
	"testing"

	"invalidb/internal/document"
)

// evaluatorCases names the traversal and operator corners on which the
// compiled evaluator must agree with the reference one. They also seed
// FuzzMatch, which extends the same invariant to generated inputs.
var evaluatorCases = []struct {
	name, filter, doc string
	want              bool
}{
	// Arrays of documents: a non-numeric segment fans out over elements.
	{"fan-out hit", `{"items.qty":{"$gt":2}}`, `{"items":[{"qty":1},{"qty":3}]}`, true},
	{"fan-out miss", `{"items.qty":{"$gt":5}}`, `{"items":[{"qty":1},{"qty":3}]}`, false},
	{"fan-out different elements satisfy different bounds", `{"items.qty":{"$gt":2,"$lt":2}}`, `{"items":[{"qty":1},{"qty":3}]}`, true},
	{"fan-out into leaf arrays", `{"items.tags":"b"}`, `{"items":[{"tags":["a"]},{"tags":["b","c"]}]}`, true},
	{"fan-out through nested arrays", `{"m.v":7}`, `{"m":[[{"v":1}],[{"v":7}]]}`, true},
	{"fan-out over scalars reaches nothing", `{"a.b":{"$exists":true}}`, `{"a":[1,2]}`, false},
	{"empty array is one missing branch", `{"a.b":null}`, `{"a":[]}`, true},
	// Numeric segments into arrays are positional and nothing else.
	{"positional hit", `{"a.1":"y"}`, `{"a":["x","y"]}`, true},
	{"positional miss", `{"a.0":"y"}`, `{"a":["x","y"]}`, false},
	{"positional out of range is missing", `{"a.5":null}`, `{"a":["x"]}`, true},
	{"positional then field", `{"a.1.b":{"$gte":2}}`, `{"a":[{"b":1},{"b":2}]}`, true},
	{"positional never reads a field named like a number", `{"a.0":"f"}`, `{"a":[{"0":"f"}]}`, false},
	{"numeric segment on an object is a field name", `{"a.0":"f"}`, `{"a":{"0":"f"}}`, true},
	{"positional into nested array", `{"g.0.1":4}`, `{"g":[[3,4],[5,6]]}`, true},
	// Leaf rule: the value itself and, if an array, each element.
	{"array equals array", `{"a":[1,2]}`, `{"a":[1,2]}`, true},
	{"array element equals scalar", `{"a":2}`, `{"a":[1,2]}`, true},
	{"array of arrays equals inner", `{"a":[1,2]}`, `{"a":[[1,2],[3]]}`, true},
	{"size sees the array, not its elements", `{"a":{"$size":2}}`, `{"a":[[1,2,3],[4]]}`, true},
	// null vs missing.
	{"null matches missing", `{"a":null}`, `{"b":1}`, true},
	{"null matches explicit null", `{"a":null}`, `{"a":null}`, true},
	{"null does not match a value", `{"a":null}`, `{"a":0}`, false},
	{"exists true on explicit null", `{"a":{"$exists":true}}`, `{"a":null}`, true},
	{"exists false on missing", `{"a":{"$exists":false}}`, `{"b":1}`, true},
	{"exists false under a scalar", `{"a.b":{"$exists":false}}`, `{"a":5}`, true},
	{"$in null matches missing", `{"a":{"$in":[null,3]}}`, `{}`, true},
	{"$gte null matches only null", `{"a":{"$gte":null}}`, `{"a":null}`, true},
	{"$gte null skips missing", `{"a":{"$gte":null}}`, `{}`, false},
	{"$type null is not missing", `{"a":{"$type":"null"}}`, `{}`, false},
	// Cross-bracket range operands never compare.
	{"number operand vs string value", `{"a":{"$gt":5}}`, `{"a":"9"}`, false},
	{"string operand vs number value", `{"a":{"$lt":"z"}}`, `{"a":1}`, false},
	{"string range", `{"a":{"$gte":"b","$lt":"d"}}`, `{"a":"c"}`, true},
	{"bool operand", `{"a":{"$gt":false}}`, `{"a":true}`, true},
	{"bool operand vs number", `{"a":{"$gte":false}}`, `{"a":0}`, false},
	{"object operand", `{"a":{"$gte":{"x":1}}}`, `{"a":{"x":2}}`, true},
	{"array operand compares whole arrays", `{"a":{"$gt":[1,2]}}`, `{"a":[1,3]}`, true},
	{"mixed-bracket array elements", `{"a":{"$gt":5}}`, `{"a":["x",null,7]}`, true},
	{"int and float operands agree", `{"a":{"$gte":3,"$lte":3.0}}`, `{"a":3}`, true},
	// Negations quantify over every reached value.
	{"$ne over array with the value", `{"a":{"$ne":2}}`, `{"a":[1,2]}`, false},
	{"$ne over array without it", `{"a":{"$ne":5}}`, `{"a":[1,2]}`, true},
	{"$ne over fan-out", `{"a.b":{"$ne":2}}`, `{"a":[{"b":1},{"b":2}]}`, false},
	{"$ne null on missing", `{"a":{"$ne":null}}`, `{}`, false},
	{"$nin over array", `{"a":{"$nin":[2,9]}}`, `{"a":[1,2]}`, false},
	{"$nin regex", `{"a":{"$nin":[{"$regex":"^x"}]}}`, `{"a":["ab","xy"]}`, false},
	{"$not range over array", `{"a":{"$not":{"$gt":1}}}`, `{"a":[0,2]}`, false},
	{"$not of conjunction", `{"a":{"$not":{"$gt":1,"$lt":3}}}`, `{"a":[0,5]}`, false},
	{"$not on missing", `{"a":{"$not":{"$gt":1}}}`, `{}`, true},
	// The remaining operators, through the same walker.
	{"$in scalar", `{"a":{"$in":[1,2,3]}}`, `{"a":2}`, true},
	{"$mod over elements", `{"a":{"$mod":[3,1]}}`, `{"a":[3,4]}`, true},
	{"$regex over fan-out", `{"a.s":{"$regex":"^b"}}`, `{"a":[{"s":"ab"},{"s":"ba"}]}`, true},
	{"$all", `{"a":{"$all":[1,2]}}`, `{"a":[2,3,1]}`, true},
	{"$all over fan-out", `{"a.t":{"$all":["x"]}}`, `{"a":[{"t":["y"]},{"t":["x","z"]}]}`, true},
	{"$elemMatch operators", `{"a":{"$elemMatch":{"$gt":1,"$lt":3}}}`, `{"a":[0,5]}`, false},
	{"$elemMatch documents", `{"a":{"$elemMatch":{"b":1,"c":2}}}`, `{"a":[{"b":1,"c":3},{"b":1,"c":2}]}`, true},
	{"$geoWithin point array", `{"p":{"$geoWithin":{"$box":[[0,0],[2,2]]}}}`, `{"p":[[5,5],[1,1]]}`, true},
	{"$nearSphere", `{"p":{"$nearSphere":[0,0],"$maxDistance":0.1}}`, `{"p":[1,1]}`, true},
	{"$text", `{"$text":{"$search":"quick -slow"}}`, `{"t":"the quick fox"}`, true},
	{"$or of fields", `{"$or":[{"a":1},{"b.c":{"$lt":0}}]}`, `{"b":{"c":-1}}`, true},
}

func TestCompiledEvaluatorEqualsReference(t *testing.T) {
	for _, c := range evaluatorCases {
		var filter, doc map[string]any
		if err := json.Unmarshal([]byte(c.filter), &filter); err != nil {
			t.Fatalf("%s: filter: %v", c.name, err)
		}
		if err := json.Unmarshal([]byte(c.doc), &doc); err != nil {
			t.Fatalf("%s: doc: %v", c.name, err)
		}
		q, err := Compile(Spec{Collection: "c", Filter: filter})
		if err != nil {
			t.Fatalf("%s: compile: %v", c.name, err)
		}
		ref, err := refCompile(filter)
		if err != nil {
			t.Fatalf("%s: reference compile: %v", c.name, err)
		}
		got, want := q.Match(document.Document(doc)), ref.Match(document.Document(doc))
		if got != want || got != c.want {
			t.Errorf("%s: compiled = %v, reference = %v, expected %v\n  filter %s\n  doc    %s", c.name, got, want, c.want, c.filter, c.doc)
		}
	}
}

// Documents are not always canonical maps: Go literals nest document.Document
// beside map[string]any and use Go integer widths. Both evaluators see them
// the same way.
func TestCompiledEvaluatorOnGoLiteralDocuments(t *testing.T) {
	doc := document.Document{
		"user":  document.Document{"name": "ann", "age": 41, "tags": []any{"a", "b"}},
		"plain": map[string]any{"inner": document.Document{"n": int32(7)}},
		"list":  []any{document.Document{"k": int64(1)}, map[string]any{"k": 2.0}},
	}
	for filter, want := range map[string]bool{
		`{"user.name":"ann"}`:                         true,
		`{"user.age":{"$gte":41,"$lt":42}}`:           true,
		`{"user.age":{"$mod":[2,1]}}`:                 true,
		`{"user.tags":"b"}`:                           true,
		`{"plain.inner.n":7}`:                         true,
		`{"plain.inner":{"$type":"object"}}`:          true,
		`{"plain.inner":{"n":7}}`:                     true,
		`{"list.k":{"$in":[2,5]}}`:                    true,
		`{"list.k":{"$ne":1}}`:                        false,
		`{"list":{"$elemMatch":{"k":{"$gt":1}}}}`:     true,
		`{"user":{"$exists":true},"nope":null}`:       true,
		`{"user.name":{"$not":{"$regex":"^a"}}}`:      false,
		`{"list.1.k":{"$lte":2}}`:                     true,
		`{"list.0":{"k":1}}`:                          true,
		`{"user.age":{"$gt":"40"}}`:                   false,
		`{"$nor":[{"user.age":41},{"plain.none":1}]}`: false,
	} {
		var raw map[string]any
		if err := json.Unmarshal([]byte(filter), &raw); err != nil {
			t.Fatal(err)
		}
		q := MustCompile(Spec{Collection: "c", Filter: raw})
		ref, err := refCompile(raw)
		if err != nil {
			t.Fatal(err)
		}
		if got, refGot := q.Match(doc), ref.Match(doc); got != refGot || got != want {
			t.Errorf("%s: compiled = %v, reference = %v, expected %v", filter, got, refGot, want)
		}
	}
}

func TestCompareEqualsReference(t *testing.T) {
	q := MustCompile(Spec{Collection: "c", Sort: []SortKey{{Path: "a.b", Desc: true}, {Path: "l.1"}}})
	docs := []document.Document{
		{"_id": "1", "a": map[string]any{"b": 2.0}, "l": []any{1.0, "x"}},
		{"_id": "2", "a": map[string]any{"b": int64(2)}, "l": []any{1.0, 5.0}},
		{"_id": "3", "a": map[string]any{"b": "str"}},
		{"_id": "4", "a": []any{map[string]any{"b": 9.0}}},
		{"_id": "5", "a": map[string]any{"b": nil}, "l": []any{}},
		{"_id": "6", "a": map[string]any{"b": true}},
		{"_id": "7", "a": document.Document{"b": []any{1.0}}},
		{"_id": "8"},
	}
	for _, a := range docs {
		for _, b := range docs {
			if got, want := q.Compare(a, b), refCompare(q, a, b); got != want {
				t.Errorf("Compare(%v, %v) = %d, reference = %d", a["_id"], b["_id"], got, want)
			}
		}
	}
}

// TestMatchNoAllocs pins the allocation budget of the compiled evaluator
// (DESIGN.md §7): nothing on documents with no array on the path, and
// nothing on the fan-out path either for the scalar operators — the walker
// hands values to tests built at compile time instead of materialising them.
func TestMatchNoAllocs(t *testing.T) {
	flat := document.Document{
		"_id": "d1", "v": float64(505), "g": float64(3), "s": "beta", "n": nil,
		"user": map[string]any{"geo": map[string]any{"lat": float64(12)}, "name": "u1"},
	}
	other := document.Document{"_id": "d2", "v": float64(7), "g": float64(3), "s": "alpha"}
	arrays := document.Document{
		"_id": "d3", "s": "x", "g": float64(3), "loc": []any{float64(1), float64(2)},
		"tags":  []any{"alpha", "beta", "gamma"},
		"items": []any{map[string]any{"qty": float64(1)}, map[string]any{"qty": float64(2), "tags": []any{"x"}}},
	}
	cases := []struct {
		name   string
		filter map[string]any
		doc    document.Document
	}{
		{"range", map[string]any{"v": map[string]any{"$gte": float64(500), "$lt": float64(510)}}, flat},
		{"range miss", map[string]any{"v": map[string]any{"$gte": float64(500), "$lt": float64(510)}}, other},
		{"equality", map[string]any{"g": float64(3), "s": "beta"}, flat},
		{"null equality on missing", map[string]any{"absent": nil}, flat},
		{"scalar $in", map[string]any{"g": map[string]any{"$in": []any{float64(1), float64(3), "x"}}}, flat},
		{"nested path", map[string]any{"user.geo.lat": map[string]any{"$gt": float64(10)}}, flat},
		{"$ne and $exists", map[string]any{"s": map[string]any{"$ne": "alpha"}, "user.name": map[string]any{"$exists": true}}, flat},
		{"$or", map[string]any{"$or": []any{map[string]any{"v": float64(1)}, map[string]any{"s": map[string]any{"$regex": "^be"}}}}, flat},
		{"$type $mod $size", map[string]any{"s": map[string]any{"$type": "string"}, "g": map[string]any{"$mod": []any{float64(2), float64(1)}}, "tags": map[string]any{"$size": float64(3)}}, arrays},
		{"$geoWithin", map[string]any{"loc": map[string]any{"$geoWithin": map[string]any{"$box": []any{[]any{float64(0), float64(0)}, []any{float64(5), float64(5)}}}}}, arrays},
		{"leaf array", map[string]any{"tags": "beta"}, arrays},
		{"fan-out", map[string]any{"items.qty": map[string]any{"$gte": float64(2)}}, arrays},
		{"fan-out $nin", map[string]any{"items.tags": map[string]any{"$nin": []any{"y"}}}, arrays},
	}
	for _, c := range cases {
		q := MustCompile(Spec{Collection: "c", Filter: c.filter})
		if n := testing.AllocsPerRun(500, func() { q.Match(c.doc) }); n != 0 {
			t.Errorf("%s: Match allocates %.1f/op, want 0", c.name, n)
		}
	}
	sorted := MustCompile(Spec{Collection: "c", Sort: []SortKey{{Path: "user.geo.lat", Desc: true}, {Path: "v"}}})
	if n := testing.AllocsPerRun(500, func() { sorted.Compare(flat, other) }); n != 0 {
		t.Errorf("Compare allocates %.1f/op, want 0", n)
	}
}
