package document

import (
	"fmt"
	"strings"
)

// Path is a dotted field path ("a.b.0.c") compiled once: segments are split
// and numeric segments parsed at compile time, so resolving the path against
// a document neither parses nor allocates. Path is the single owner of
// MongoDB's traversal rule (DESIGN.md §7, "Compiled evaluation"):
//
//   - on an object, a segment selects the field of that name;
//   - on an array, an all-digit segment is positional — it selects that one
//     element and nothing else — while any other segment fans out: the walk
//     continues, with the same segment, in every element;
//   - a branch that cannot continue (absent field, position out of range,
//     scalar in the way, empty array) reaches Missing;
//   - at the leaf, scalar operators see the value itself and, if it is an
//     array, each of its elements (WalkLeaves, VisitLeaves).
//
// Reached values are handed over in canonical form (Document as
// map[string]any, Go integer widths as int64). A Path is immutable after
// ParsePath and safe for concurrent use.
type Path struct {
	raw  string
	segs []pathSeg
}

type pathSeg struct {
	key string
	idx int // the array position an all-digit segment names, else -1
}

// ParsePath compiles a dotted path. Every string compiles; callers that
// take paths from outside validate them first (no empty segments).
func ParsePath(path string) Path {
	parts := strings.Split(path, ".")
	segs := make([]pathSeg, len(parts))
	for i, s := range parts {
		segs[i] = pathSeg{key: s, idx: arrayIndex(s)}
	}
	return Path{raw: path, segs: segs}
}

// ParsePaths compiles a list of dotted paths.
func ParsePaths(paths []string) []Path {
	if len(paths) == 0 {
		return nil
	}
	out := make([]Path, len(paths))
	for i, p := range paths {
		out[i] = ParsePath(p)
	}
	return out
}

// String returns the dotted source form.
func (p *Path) String() string { return p.raw }

// arrayIndex parses an all-digit segment as an array position; -1 for any
// other segment. Positions too large for any slice saturate.
func arrayIndex(seg string) int {
	if seg == "" {
		return -1
	}
	n := 0
	for i := 0; i < len(seg); i++ {
		c := seg[i]
		if c < '0' || c > '9' {
			return -1
		}
		if n < 1<<40 {
			n = n*10 + int(c-'0')
		}
	}
	return n
}

// Visitor receives the values a Path reaches in a document, one at a time.
// Implementations on the matching hot path are pointers to state built at
// query-compile time, so handing one to a walk allocates nothing.
type Visitor interface {
	// Visit is handed one reached value (Missing for an absent branch);
	// returning true stops the walk.
	Visit(v any) (stop bool)
}

// missingAny is Missing pre-boxed, so walkers hand it out without a
// conversion at the call site.
var missingAny any = Missing

// descend follows segs through objects. It returns the value reached and no
// remaining segments when the path completes or dead-ends (Missing), or the
// array in the way and the segments still to apply to it.
//
//invalidb:hotpath
func descend(cur any, segs []pathSeg) (any, []pathSeg) {
	for i := range segs {
		switch t := cur.(type) {
		case map[string]any:
			v, ok := t[segs[i].key]
			if !ok {
				return missingAny, nil
			}
			cur = v
		case Document:
			v, ok := t[segs[i].key]
			if !ok {
				return missingAny, nil
			}
			cur = v
		case []any:
			return cur, segs[i:]
		default:
			return missingAny, nil
		}
	}
	return normalize(cur), nil
}

// Single resolves the path when it crosses no array — the case in which it
// reaches exactly one value (Missing included; an array AT the leaf is one
// value, and the leaf rule is the caller's: VisitLeaves). ok is false when
// an array lies on the way and the caller must Walk.
//
//invalidb:hotpath
func (p *Path) Single(d Document) (v any, ok bool) {
	v, rest := descend(map[string]any(d), p.segs)
	return v, len(rest) == 0
}

// Get resolves the path positionally — numeric segments index arrays, any
// other segment on an array reaches Missing — and returns the one value
// there. It is the accessor sort keys and projections use: no fan-out.
//
//invalidb:hotpath
func (p *Path) Get(d Document) any {
	cur, rest := descend(map[string]any(d), p.segs)
	for len(rest) > 0 {
		arr := cur.([]any)
		idx := rest[0].idx
		if idx < 0 || idx >= len(arr) {
			return missingAny
		}
		cur, rest = descend(arr[idx], rest[1:])
	}
	return cur
}

// Walk visits every value the path reaches in d, in document order, until
// the visitor stops it; it reports whether the visitor did.
//
//invalidb:hotpath
func (p *Path) Walk(d Document, vis Visitor) bool {
	return walk(map[string]any(d), p.segs, false, vis)
}

// WalkLeaves is Walk under the leaf rule of the scalar operators: a reached
// array is visited itself and then element by element.
//
//invalidb:hotpath
func (p *Path) WalkLeaves(d Document, vis Visitor) bool {
	return walk(map[string]any(d), p.segs, true, vis)
}

//invalidb:hotpath
func walk(cur any, segs []pathSeg, leaves bool, vis Visitor) bool {
	v, rest := descend(cur, segs)
	if len(rest) == 0 {
		if leaves {
			return VisitLeaves(v, vis)
		}
		return vis.Visit(v)
	}
	arr := v.([]any)
	if idx := rest[0].idx; idx >= 0 {
		if idx >= len(arr) {
			return vis.Visit(missingAny)
		}
		return walk(arr[idx], rest[1:], leaves, vis)
	}
	if len(arr) == 0 {
		return vis.Visit(missingAny)
	}
	for _, e := range arr {
		if walk(e, rest, leaves, vis) {
			return true
		}
	}
	return false
}

// VisitLeaves applies the leaf rule to one reached value: the value itself
// and, if it is an array, each of its elements.
//
//invalidb:hotpath
func VisitLeaves(v any, vis Visitor) bool {
	if vis.Visit(v) {
		return true
	}
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			if vis.Visit(normalize(e)) {
				return true
			}
		}
	}
	return false
}

// prefix returns the dotted form of the first n segments.
func (p *Path) prefix(n int) string {
	end := -1
	for _, s := range p.segs[:n] {
		end += len(s.key) + 1
	}
	return p.raw[:end]
}

// Set assigns a value at the path, creating intermediate objects as needed.
// It returns an error when the path traverses a non-object value.
func (p *Path) Set(d Document, value any) error {
	cur := map[string]any(d)
	last := len(p.segs) - 1
	for i, seg := range p.segs[:last] {
		next, ok := cur[seg.key]
		if !ok {
			child := map[string]any{}
			cur[seg.key] = child
			cur = child
			continue
		}
		child, ok := normalize(next).(map[string]any)
		if !ok {
			return fmt.Errorf("document: path %q blocked by non-object at %q", p.raw, p.prefix(i+1))
		}
		cur[seg.key] = child
		cur = child
	}
	cur[p.segs[last].key] = value
	return nil
}
