// Package document defines the JSON-style document model shared by the
// pull-based storage engine, the query engine, and the InvaliDB real-time
// matching layer.
//
// A Document is a JSON object decoded into Go's generic representation:
// nil, bool, float64, int64, string, []any and map[string]any. Numbers may be
// either int64 or float64; the comparison functions treat them as one numeric
// type, mirroring MongoDB's behaviour. All functions in this package are safe
// for concurrent use on distinct documents; documents themselves are plain
// maps and must not be mutated while shared.
package document

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"
)

// Document is a single record: a JSON object keyed by field name.
type Document map[string]any

// ID returns the document's primary key (the "_id" field) as a string.
// Non-string keys are formatted canonically. The second return value reports
// whether the document has a primary key at all.
func (d Document) ID() (string, bool) {
	v, ok := d["_id"]
	if !ok {
		return "", false
	}
	switch k := v.(type) {
	case string:
		return k, true
	default:
		return fmt.Sprint(normalize(v)), true
	}
}

// Clone returns a deep copy of the document. Mutating the copy never affects
// the original.
func (d Document) Clone() Document {
	if d == nil {
		return nil
	}
	return cloneMap(d)
}

func cloneMap(m map[string]any) map[string]any {
	out := make(map[string]any, len(m))
	for k, v := range m {
		out[k] = cloneValue(v)
	}
	return out
}

func cloneValue(v any) any {
	switch t := v.(type) {
	case map[string]any:
		return cloneMap(t)
	case Document:
		return Document(cloneMap(t))
	case []any:
		out := make([]any, len(t))
		for i, e := range t {
			out[i] = cloneValue(e)
		}
		return out
	default:
		return v
	}
}

// normalize converts a value into the canonical in-memory form: Document
// becomes map[string]any, json.Number and all integer widths become int64 or
// float64. It is applied lazily by comparison and encoding helpers so that
// values constructed from Go literals (e.g. int) behave like decoded JSON.
func normalize(v any) any {
	switch t := v.(type) {
	case Document:
		return map[string]any(t)
	case int:
		return int64(t)
	case int32:
		return int64(t)
	case uint:
		return int64(t)
	case uint32:
		return int64(t)
	case uint64:
		return int64(t)
	case float32:
		return float64(t)
	case json.Number:
		if i, err := t.Int64(); err == nil {
			return i
		}
		f, _ := t.Float64()
		return f
	default:
		return v
	}
}

// typeClass is the BSON-style type bracket used to order values of different
// types, following MongoDB's comparison order: Null < Numbers < String <
// Object < Array < Boolean. (Unsupported BSON types are omitted; unknown Go
// types sort last, deterministically by their formatted representation.)
type typeClass int

const (
	classMissing typeClass = iota // field absent: sorts before null
	classNull
	classNumber
	classString
	classObject
	classArray
	classBool
	classOther
)

func classOf(v any) typeClass {
	switch normalize(v).(type) {
	case missingValue:
		return classMissing
	case nil:
		return classNull
	case int64, float64:
		return classNumber
	case string:
		return classString
	case map[string]any:
		return classObject
	case []any:
		return classArray
	case bool:
		return classBool
	default:
		return classOther
	}
}

// missingValue marks a field that is absent from a document. It is distinct
// from an explicit null: MongoDB sorts missing before null and treats both as
// equal to null in equality filters.
type missingValue struct{}

// Missing is the sentinel returned by Get for absent paths.
var Missing = missingValue{}

// IsMissing reports whether v is the Missing sentinel.
func IsMissing(v any) bool {
	_, ok := v.(missingValue)
	return ok
}

// Compare orders two values with MongoDB semantics: values of different type
// brackets order by bracket; numbers compare numerically across int64/float64;
// strings lexicographically; arrays element-wise; objects by sorted key/value
// sequence; booleans false < true. The result is -1, 0 or +1.
//
// Canonical numbers and strings — every sort key and nearly every filter
// operand — compare on the spot, without normalizing or allocating.
//
//invalidb:hotpath
func Compare(a, b any) int {
	switch x := a.(type) {
	case float64:
		switch y := b.(type) {
		case float64:
			return CompareFloats(x, y)
		case int64:
			return CompareFloats(x, float64(y))
		}
	case int64:
		switch y := b.(type) {
		case int64:
			return compareInts(x, y)
		case float64:
			return CompareFloats(float64(x), y)
		}
	case string:
		if y, ok := b.(string); ok {
			return strings.Compare(x, y)
		}
	}
	//invalidb:allow hotpathalloc objects sort both key sets and unknown Go types format themselves; canonical scalars returned above
	return compareGeneral(a, b)
}

func compareGeneral(a, b any) int {
	a, b = normalize(a), normalize(b)
	ca, cb := classOf(a), classOf(b)
	if ca != cb {
		if ca < cb {
			return -1
		}
		return 1
	}
	switch ca {
	case classMissing, classNull:
		return 0
	case classNumber:
		// Compare in int64 space when both are integers to avoid float rounding.
		ia, aInt := a.(int64)
		ib, bInt := b.(int64)
		if aInt && bInt {
			return compareInts(ia, ib)
		}
		return CompareFloats(toFloat(a), toFloat(b))
	case classString:
		return strings.Compare(a.(string), b.(string))
	case classBool:
		ba, bb := a.(bool), b.(bool)
		switch {
		case ba == bb:
			return 0
		case !ba:
			return -1
		default:
			return 1
		}
	case classArray:
		return compareArrays(a.([]any), b.([]any))
	case classObject:
		return compareObjects(a.(map[string]any), b.(map[string]any))
	default:
		return strings.Compare(fmt.Sprint(a), fmt.Sprint(b))
	}
}

func compareInts(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

// CompareFloats orders two numbers the way Compare does: NaN first, equal to
// itself.
func CompareFloats(fa, fb float64) int {
	switch {
	case fa < fb:
		return -1
	case fa > fb:
		return 1
	case math.IsNaN(fa) && !math.IsNaN(fb):
		return -1 // NaN sorts first among numbers, as in MongoDB
	case !math.IsNaN(fa) && math.IsNaN(fb):
		return 1
	default:
		return 0
	}
}

func toFloat(v any) float64 {
	switch t := v.(type) {
	case int64:
		return float64(t)
	case float64:
		return t
	default:
		return math.NaN()
	}
}

func compareArrays(a, b []any) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if c := Compare(a[i], b[i]); c != 0 {
			return c
		}
	}
	switch {
	case len(a) < len(b):
		return -1
	case len(a) > len(b):
		return 1
	default:
		return 0
	}
}

func compareObjects(a, b map[string]any) int {
	ka, kb := sortedKeys(a), sortedKeys(b)
	n := len(ka)
	if len(kb) < n {
		n = len(kb)
	}
	for i := 0; i < n; i++ {
		if c := strings.Compare(ka[i], kb[i]); c != 0 {
			return c
		}
		if c := Compare(a[ka[i]], b[kb[i]]); c != 0 {
			return c
		}
	}
	switch {
	case len(ka) < len(kb):
		return -1
	case len(ka) > len(kb):
		return 1
	default:
		return 0
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Equal reports whether two values are deeply equal under Compare semantics
// (numeric 3 == 3.0, object key order irrelevant).
func Equal(a, b any) bool { return Compare(a, b) == 0 }

// Get resolves a dotted path positionally (see Path.Get). It compiles the
// path per call: callers on a hot path hold a Path instead.
func Get(d Document, path string) any {
	p := ParsePath(path)
	return p.Get(d)
}

// Set assigns a value at a dotted path (see Path.Set).
func Set(d Document, path string, value any) error {
	p := ParsePath(path)
	return p.Set(d, value)
}

// Unset removes the value at a dotted path. Removing a missing path is a
// no-op.
func Unset(d Document, path string) {
	segs := strings.Split(path, ".")
	cur := map[string]any(d)
	for _, seg := range segs[:len(segs)-1] {
		child, ok := normalize(cur[seg]).(map[string]any)
		if !ok {
			return
		}
		cur = child
	}
	delete(cur, segs[len(segs)-1])
}

// Project returns a copy of the document containing only the given paths
// (plus _id, as in MongoDB, unless includeID is false). An empty path list
// returns a full clone.
func Project(d Document, paths []Path, includeID bool) Document {
	if len(paths) == 0 {
		return d.Clone()
	}
	out := Document{}
	if includeID {
		if id, ok := d["_id"]; ok {
			out["_id"] = cloneValue(id)
		}
	}
	for i := range paths {
		v := paths[i].Get(d)
		if IsMissing(v) {
			continue
		}
		// Ignore the error: Get succeeded, so the path is object-shaped.
		_ = paths[i].Set(out, cloneValue(v))
	}
	return out
}
