package document

import (
	"reflect"
	"strings"
	"testing"
)

// collector gathers what a walk visits.
type collector struct{ vals []any }

func (c *collector) Visit(v any) bool { c.vals = append(c.vals, v); return false }

// walked returns every value a compiled path visits in d.
func walked(d Document, path string, leaves bool) []any {
	p := ParsePath(path)
	var c collector
	if leaves {
		p.WalkLeaves(d, &c)
	} else {
		p.Walk(d, &c)
	}
	return c.vals
}

// referenceLookup is the materialising path resolver Path replaced, kept
// verbatim as the specification the walker is checked against.
func referenceLookup(d Document, path string) []any {
	return referenceLookupValue(map[string]any(d), strings.Split(path, "."))
}

func referenceLookupValue(cur any, segs []string) []any {
	cur = normalize(cur)
	if len(segs) == 0 {
		return []any{cur}
	}
	seg := segs[0]
	switch t := cur.(type) {
	case map[string]any:
		v, ok := t[seg]
		if !ok {
			return []any{Missing}
		}
		return referenceLookupValue(v, segs[1:])
	case []any:
		if idx := arrayIndex(seg); idx >= 0 {
			if idx >= len(t) {
				return []any{Missing}
			}
			return referenceLookupValue(t[idx], segs[1:])
		}
		var out []any
		for _, e := range t {
			out = append(out, referenceLookupValue(e, segs)...)
		}
		if len(out) == 0 {
			out = []any{Missing}
		}
		return out
	default:
		return []any{Missing}
	}
}

// referenceCandidates is the leaf rule as the old evaluator materialised it.
func referenceCandidates(vals []any) []any {
	out := make([]any, 0, len(vals))
	for _, v := range vals {
		out = append(out, v)
		if arr, ok := v.([]any); ok {
			out = append(out, arr...)
		}
	}
	return out
}

func TestPathWalkEqualsReferenceLookup(t *testing.T) {
	doc := Document{
		"s": "x",
		"n": nil,
		"o": map[string]any{"a": int64(1), "deep": map[string]any{"z": 2.5}},
		"D": Document{"a": int64(7), "arr": []any{int64(1), int64(2)}},
		"a": []any{
			map[string]any{"b": int64(1), "c": []any{int64(10), int64(11)}},
			map[string]any{"b": []any{int64(2), int64(3)}},
			Document{"b": "doc"},
			map[string]any{"x": true},
			int64(9),
			[]any{map[string]any{"b": "nested"}, int64(4)},
		},
		"empty": []any{},
		"pts":   []any{[]any{1.0, 2.0}, []any{3.0, 4.0}},
		"0":     "zero",
		"goint": 5,
	}
	paths := []string{
		"s", "n", "o", "o.a", "o.deep.z", "o.missing", "o.a.b", "s.x",
		"D", "D.a", "D.arr", "D.arr.1", "D.arr.7",
		"a", "a.b", "a.c", "a.b.0", "a.0", "a.0.b", "a.0.c", "a.0.c.1", "a.1.b.1",
		"a.5", "a.5.0.b", "a.5.b", "a.9", "a.9.b", "a.x", "a.-1", "a.01",
		"empty", "empty.b", "empty.0", "pts", "pts.0", "pts.1.0", "0", "goint", "missing", "missing.deeper",
	}
	for _, path := range paths {
		ref := referenceLookup(doc, path)
		if got := walked(doc, path, false); !reflect.DeepEqual(got, ref) {
			t.Errorf("Walk(%q) = %v, reference Lookup = %v", path, got, ref)
		}
		want := referenceCandidates(ref)
		for i := range want {
			want[i] = normalize(want[i]) // the walker also canonicalises array elements
		}
		if got := walked(doc, path, true); !reflect.DeepEqual(got, want) {
			t.Errorf("WalkLeaves(%q) = %v, reference candidates = %v", path, got, want)
		}
		p := ParsePath(path)
		if v, ok := p.Single(doc); ok && (len(ref) != 1 || !reflect.DeepEqual(v, ref[0])) {
			t.Errorf("Single(%q) = %v, reference Lookup = %v", path, v, ref)
		}
	}
}

func TestPathSingleReportsArraysOnTheWay(t *testing.T) {
	doc := Document{"a": []any{map[string]any{"b": int64(1)}}, "o": map[string]any{"arr": []any{int64(1)}}}
	for path, single := range map[string]bool{"a": true, "a.b": false, "a.0": false, "o.arr": true, "o.arr.0": false, "o.x.y": true} {
		p := ParsePath(path)
		if _, ok := p.Single(doc); ok != single {
			t.Errorf("Single(%q) ok = %v, want %v", path, ok, single)
		}
	}
}

func TestPathWalkStopsWhenVisitorDoes(t *testing.T) {
	doc := Document{"a": []any{map[string]any{"b": int64(1)}, map[string]any{"b": int64(2)}, map[string]any{"b": int64(3)}}}
	p := ParsePath("a.b")
	s := &stopAt{want: int64(2)}
	if !p.Walk(doc, s) || s.seen != 2 {
		t.Fatalf("walk stopped=%v after %d visits, want stop after 2", s.seen > 0, s.seen)
	}
	s = &stopAt{want: "never"}
	if p.Walk(doc, s) || s.seen != 3 {
		t.Fatalf("walk without a stop visited %d values, want 3 and a false verdict", s.seen)
	}
}

type stopAt struct {
	want any
	seen int
}

func (s *stopAt) Visit(v any) bool { s.seen++; return v == s.want }

func TestPathWalkNoAllocs(t *testing.T) {
	doc := Document{
		"v":    float64(5),
		"user": map[string]any{"geo": map[string]any{"lat": 12.0}},
		"a":    []any{map[string]any{"b": int64(1)}, map[string]any{"b": int64(2)}},
	}
	flat, nested, fan := ParsePath("v"), ParsePath("user.geo.lat"), ParsePath("a.b")
	s := &stopAt{want: "never"}
	if n := testing.AllocsPerRun(1000, func() {
		flat.Single(doc)
		nested.Single(doc)
		nested.Get(doc)
		flat.WalkLeaves(doc, s)
		fan.WalkLeaves(doc, s)
		fan.Get(doc)
	}); n != 0 {
		t.Fatalf("compiled path resolution allocates %.1f/op, want 0", n)
	}
}

func TestPathSetReportsBlockingPrefix(t *testing.T) {
	d := Document{"a": map[string]any{"b": int64(1)}}
	err := Set(d, "a.b.c.d", int64(2))
	if err == nil || !strings.Contains(err.Error(), `"a.b"`) {
		t.Fatalf("Set through a scalar: err = %v, want the blocking prefix a.b named", err)
	}
}
