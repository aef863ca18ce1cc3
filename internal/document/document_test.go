package document

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestIDString(t *testing.T) {
	d := Document{"_id": "abc"}
	id, ok := d.ID()
	if !ok || id != "abc" {
		t.Fatalf("ID() = %q, %v; want abc, true", id, ok)
	}
}

func TestIDNumeric(t *testing.T) {
	d := Document{"_id": int64(42)}
	id, ok := d.ID()
	if !ok || id != "42" {
		t.Fatalf("ID() = %q, %v; want 42, true", id, ok)
	}
}

func TestIDMissing(t *testing.T) {
	if _, ok := (Document{"x": 1}).ID(); ok {
		t.Fatal("ID() reported ok for a document without _id")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := Document{
		"a": map[string]any{"b": []any{int64(1), map[string]any{"c": "x"}}},
	}
	cp := orig.Clone()
	inner := cp["a"].(map[string]any)["b"].([]any)[1].(map[string]any)
	inner["c"] = "mutated"
	got := Get(orig, "a.b.1.c")
	if got != "x" {
		t.Fatalf("mutating clone leaked into original: got %v", got)
	}
}

func TestCloneNil(t *testing.T) {
	var d Document
	if d.Clone() != nil {
		t.Fatal("Clone of nil document should be nil")
	}
}

func TestCompareTypeBrackets(t *testing.T) {
	// MongoDB order: missing < null < number < string < object < array < bool.
	ordered := []any{Missing, nil, int64(3), "s", map[string]any{}, []any{}, false}
	for i := 0; i < len(ordered); i++ {
		for j := 0; j < len(ordered); j++ {
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got := Compare(ordered[i], ordered[j]); got != want {
				t.Errorf("Compare(%v, %v) = %d, want %d", ordered[i], ordered[j], got, want)
			}
		}
	}
}

func TestCompareNumbersAcrossTypes(t *testing.T) {
	cases := []struct {
		a, b any
		want int
	}{
		{int64(3), float64(3), 0},
		{int64(3), float64(3.5), -1},
		{float64(4.5), int64(4), 1},
		{int64(math.MaxInt64), int64(math.MaxInt64 - 1), 1},
		{int(7), int64(7), 0}, // Go literal int normalizes
		{float32(2.5), float64(2.5), 0},
		{uint64(9), int64(9), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareStringsAndBools(t *testing.T) {
	if Compare("a", "b") != -1 || Compare("b", "a") != 1 || Compare("a", "a") != 0 {
		t.Error("string comparison broken")
	}
	if Compare(false, true) != -1 || Compare(true, false) != 1 || Compare(true, true) != 0 {
		t.Error("bool comparison broken")
	}
}

func TestCompareArrays(t *testing.T) {
	cases := []struct {
		a, b []any
		want int
	}{
		{[]any{int64(1), int64(2)}, []any{int64(1), int64(3)}, -1},
		{[]any{int64(1)}, []any{int64(1), int64(0)}, -1},
		{[]any{"z"}, []any{"a", "a"}, 1},
		{[]any{}, []any{}, 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v, %v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestCompareObjectsKeyOrderIrrelevant(t *testing.T) {
	a := map[string]any{"x": int64(1), "y": int64(2)}
	b := map[string]any{"y": int64(2), "x": int64(1)}
	if Compare(a, b) != 0 {
		t.Error("objects with same fields in different insertion order should be equal")
	}
	c := map[string]any{"x": int64(1), "y": int64(3)}
	if Compare(a, c) != -1 {
		t.Error("object value ordering broken")
	}
	d := map[string]any{"x": int64(1)}
	if Compare(d, a) != -1 {
		t.Error("shorter object prefix should sort first")
	}
}

func TestCompareNaN(t *testing.T) {
	if Compare(math.NaN(), float64(0)) != -1 {
		t.Error("NaN should sort before other numbers")
	}
	if Compare(float64(0), math.NaN()) != 1 {
		t.Error("numbers should sort after NaN")
	}
	if Compare(math.NaN(), math.NaN()) != 0 {
		t.Error("NaN should equal NaN in sort order")
	}
}

func TestGetNested(t *testing.T) {
	d := Document{"a": map[string]any{"b": map[string]any{"c": int64(7)}}}
	if got := Get(d, "a.b.c"); got != int64(7) {
		t.Fatalf("Get = %v, want 7", got)
	}
	if got := Get(d, "a.b.missing"); !IsMissing(got) {
		t.Fatalf("Get on absent leaf = %v, want Missing", got)
	}
	if got := Get(d, "a.b.c.d"); !IsMissing(got) {
		t.Fatalf("Get through scalar = %v, want Missing", got)
	}
}

func TestGetArrayIndex(t *testing.T) {
	d := Document{"a": []any{"x", "y", "z"}}
	if got := Get(d, "a.1"); got != "y" {
		t.Fatalf("Get(a.1) = %v, want y", got)
	}
	if got := Get(d, "a.9"); !IsMissing(got) {
		t.Fatalf("Get out of bounds = %v, want Missing", got)
	}
	if got := Get(d, "a.-1"); !IsMissing(got) {
		t.Fatalf("Get(a.-1) = %v, want Missing (non-numeric segment)", got)
	}
}

func TestLookupFansOutOverArrays(t *testing.T) {
	d := Document{"a": []any{
		map[string]any{"b": int64(1)},
		map[string]any{"b": int64(2)},
		map[string]any{"c": int64(3)},
	}}
	vals := walked(d, "a.b", false)
	var nums []int64
	missing := 0
	for _, v := range vals {
		if IsMissing(v) {
			missing++
			continue
		}
		nums = append(nums, v.(int64))
	}
	if len(nums) != 2 || nums[0] != 1 || nums[1] != 2 || missing != 1 {
		t.Fatalf("Lookup fan-out = %v (missing=%d), want [1 2] missing=1", nums, missing)
	}
}

func TestLookupTerminalArray(t *testing.T) {
	d := Document{"a": []any{int64(1), int64(2)}}
	vals := walked(d, "a", false)
	if len(vals) != 1 {
		t.Fatalf("Lookup(a) returned %d values, want the array itself", len(vals))
	}
	if _, ok := vals[0].([]any); !ok {
		t.Fatalf("Lookup(a) = %T, want []any", vals[0])
	}
}

func TestLookupPositional(t *testing.T) {
	d := Document{"a": []any{map[string]any{"b": "x"}, map[string]any{"b": "y"}}}
	vals := walked(d, "a.1.b", false)
	if len(vals) != 1 || vals[0] != "y" {
		t.Fatalf("Lookup(a.1.b) = %v, want [y]", vals)
	}
}

func TestSetCreatesIntermediates(t *testing.T) {
	d := Document{}
	if err := Set(d, "a.b.c", int64(5)); err != nil {
		t.Fatal(err)
	}
	if got := Get(d, "a.b.c"); got != int64(5) {
		t.Fatalf("after Set, Get = %v", got)
	}
}

func TestSetBlockedByScalar(t *testing.T) {
	d := Document{"a": "scalar"}
	if err := Set(d, "a.b", 1); err == nil {
		t.Fatal("Set through a scalar should error")
	}
}

func TestUnset(t *testing.T) {
	d := Document{"a": map[string]any{"b": int64(1), "c": int64(2)}}
	Unset(d, "a.b")
	if !IsMissing(Get(d, "a.b")) {
		t.Fatal("Unset did not remove the field")
	}
	if Get(d, "a.c") != int64(2) {
		t.Fatal("Unset removed a sibling")
	}
	Unset(d, "nope.x") // absent path: no-op, must not panic
}

func TestProject(t *testing.T) {
	d := Document{"_id": "k", "title": "DB Fun", "year": int64(2018), "secret": "x"}
	p := Project(d, ParsePaths([]string{"title", "year"}), true)
	if p["title"] != "DB Fun" || p["year"] != int64(2018) || p["_id"] != "k" {
		t.Fatalf("projection lost fields: %v", p)
	}
	if _, ok := p["secret"]; ok {
		t.Fatal("projection leaked an unselected field")
	}
	noID := Project(d, ParsePaths([]string{"title"}), false)
	if _, ok := noID["_id"]; ok {
		t.Fatal("projection included _id despite includeID=false")
	}
}

func TestProjectEmptyPathsClones(t *testing.T) {
	d := Document{"a": map[string]any{"b": int64(1)}}
	p := Project(d, nil, true)
	p["a"].(map[string]any)["b"] = int64(9)
	if Get(d, "a.b") != int64(1) {
		t.Fatal("Project(nil) must deep-clone")
	}
}

func TestDecodeJSONNumbers(t *testing.T) {
	d, err := DecodeJSON([]byte(`{"i": 3, "f": 3.5, "big": 123456789012345}`))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := d["i"].(int64); !ok {
		t.Fatalf("integral JSON number decoded as %T, want int64", d["i"])
	}
	if _, ok := d["f"].(float64); !ok {
		t.Fatalf("fractional JSON number decoded as %T, want float64", d["f"])
	}
	if d["big"] != int64(123456789012345) {
		t.Fatalf("large integer mangled: %v", d["big"])
	}
}

func TestDecodeJSONRejectsGarbage(t *testing.T) {
	if _, err := DecodeJSON([]byte(`{"a":`)); err == nil {
		t.Fatal("truncated JSON should error")
	}
	if _, err := DecodeJSON([]byte(`[1,2]`)); err == nil {
		t.Fatal("non-object JSON should error")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	d := Document{
		"s":    "str",
		"i":    int64(-12),
		"f":    2.25,
		"b":    true,
		"null": nil,
		"arr":  []any{int64(1), "two", map[string]any{"k": false}},
		"obj":  map[string]any{"nested": []any{nil}},
	}
	out, err := DecodeJSON(EncodeJSON(d))
	if err != nil {
		t.Fatal(err)
	}
	if !Equal(map[string]any(d), map[string]any(out)) {
		t.Fatalf("round trip changed value:\n in: %v\nout: %v", d, out)
	}
}

func TestCanonicalNumericCollapse(t *testing.T) {
	a := MarshalCanonical(map[string]any{"x": int64(3)})
	b := MarshalCanonical(map[string]any{"x": float64(3)})
	if string(a) != string(b) {
		t.Fatalf("3 and 3.0 canonical forms differ: %s vs %s", a, b)
	}
}

func TestCanonicalKeyOrder(t *testing.T) {
	a := MarshalCanonical(map[string]any{"a": int64(1), "b": int64(2)})
	b := MarshalCanonical(map[string]any{"b": int64(2), "a": int64(1)})
	if string(a) != string(b) {
		t.Fatal("canonical encoding depends on map iteration order")
	}
}

func TestHash64Stability(t *testing.T) {
	v := map[string]any{"q": []any{int64(1), "x"}}
	if Hash64(v) != Hash64(v) {
		t.Fatal("Hash64 not deterministic")
	}
	if Hash64(map[string]any{"q": 1}) == Hash64(map[string]any{"q": 2}) {
		t.Fatal("distinct values hash equal (suspicious)")
	}
}

func TestAfterImageValidate(t *testing.T) {
	good := &AfterImage{Collection: "c", Key: "k", Version: 1, Op: OpInsert, Doc: Document{"_id": "k"}}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid after-image rejected: %v", err)
	}
	bad := []*AfterImage{
		{Key: "", Version: 1, Op: OpInsert, Doc: Document{}},
		{Key: "k", Version: 0, Op: OpInsert, Doc: Document{}},
		{Key: "k", Version: 1, Op: OpDelete, Doc: Document{}},
		{Key: "k", Version: 1, Op: OpInsert},
		{Key: "k", Version: 1, Op: Op(9), Doc: Document{}},
	}
	for i, ai := range bad {
		if err := ai.Validate(); err == nil {
			t.Errorf("case %d: invalid after-image accepted", i)
		}
	}
}

func TestAfterImageEncodeDecode(t *testing.T) {
	ai := &AfterImage{Collection: "articles", Key: "5", Version: 3, Op: OpUpdate,
		Doc: Document{"_id": "5", "title": "DB Fun", "year": int64(2018)}}
	data, err := ai.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeAfterImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Key != "5" || got.Version != 3 || got.Op != OpUpdate {
		t.Fatalf("metadata mangled: %+v", got)
	}
	if got.Doc["year"] != int64(2018) {
		t.Fatalf("document numbers not normalized: %T", got.Doc["year"])
	}
}

func TestAfterImageDeleteRoundTrip(t *testing.T) {
	ai := &AfterImage{Collection: "c", Key: "k", Version: 9, Op: OpDelete}
	data, _ := ai.Encode()
	got, err := DecodeAfterImage(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Doc != nil {
		t.Fatal("delete after-image grew a document")
	}
}

func TestOpString(t *testing.T) {
	if OpInsert.String() != "insert" || OpUpdate.String() != "update" || OpDelete.String() != "delete" {
		t.Fatal("Op.String broken")
	}
	if Op(77).String() != "Op(77)" {
		t.Fatal("unknown Op.String broken")
	}
}

// genValue builds a bounded random JSON-like value from quick's size hints.
func genValue(rnd interface{ Intn(int) int }, depth int) any {
	switch k := rnd.Intn(7); {
	case k == 0:
		return nil
	case k == 1:
		return rnd.Intn(2) == 0
	case k == 2:
		return int64(rnd.Intn(2000) - 1000)
	case k == 3:
		return float64(rnd.Intn(2000)-1000) / 4
	case k == 4:
		return fmt.Sprintf("s%d", rnd.Intn(100))
	case k == 5 && depth > 0:
		n := rnd.Intn(3)
		arr := make([]any, n)
		for i := range arr {
			arr[i] = genValue(rnd, depth-1)
		}
		return arr
	case k == 6 && depth > 0:
		n := rnd.Intn(3)
		obj := map[string]any{}
		for i := 0; i < n; i++ {
			obj[fmt.Sprintf("k%d", rnd.Intn(5))] = genValue(rnd, depth-1)
		}
		return obj
	default:
		return int64(rnd.Intn(100))
	}
}

func TestQuickCompareReflexiveAntisymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rnd := newRand(seed)
		a := genValue(rnd, 3)
		b := genValue(rnd, 3)
		if Compare(a, a) != 0 {
			return false
		}
		return Compare(a, b) == -Compare(b, a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCompareTransitive(t *testing.T) {
	f := func(seed int64) bool {
		rnd := newRand(seed)
		vals := []any{genValue(rnd, 2), genValue(rnd, 2), genValue(rnd, 2)}
		// Check transitivity over every permutation of the triple.
		a, b, c := vals[0], vals[1], vals[2]
		if Compare(a, b) <= 0 && Compare(b, c) <= 0 && Compare(a, c) > 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickEncodeRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rnd := newRand(seed)
		d := Document{}
		for i := 0; i < 4; i++ {
			d[fmt.Sprintf("f%d", i)] = genValue(rnd, 3)
		}
		out, err := DecodeJSON(EncodeJSON(d))
		if err != nil {
			return false
		}
		return Equal(map[string]any(d), map[string]any(out))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickCanonicalEqualIffCompareEqual(t *testing.T) {
	f := func(seed int64) bool {
		rnd := newRand(seed)
		a := genValue(rnd, 3)
		b := genValue(rnd, 3)
		canonEq := string(MarshalCanonical(a)) == string(MarshalCanonical(b))
		return canonEq == (Compare(a, b) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// newRand returns a deterministic PRNG usable by the generators above
// without importing math/rand at every call site.
func newRand(seed int64) *xorshift {
	return &xorshift{state: uint64(seed)*2862933555777941757 + 3037000493}
}

type xorshift struct{ state uint64 }

func (x *xorshift) Intn(n int) int {
	x.state ^= x.state << 13
	x.state ^= x.state >> 7
	x.state ^= x.state << 17
	if n <= 0 {
		return 0
	}
	return int(x.state % uint64(n))
}
