// Package query implements the MongoDB-compatible query engine used by both
// the pull-based storage engine and InvaliDB's real-time matching layer. The
// paper (§5.3) calls this the "pluggable query engine": it owns query
// parsing, after-image interpretation, matching decisions, and result
// ordering, so that both engines produce identical output for identical
// input.
package query

import (
	"regexp"
	"strings"

	"invalidb/internal/document"
	"invalidb/internal/geo"
)

// Filter is a parsed predicate tree that can be evaluated against a document.
type Filter interface {
	// Match reports whether the document satisfies the predicate.
	Match(d document.Document) bool
}

// andFilter matches when every child matches. An empty conjunction matches
// everything (the `{}` filter).
type andFilter struct{ children []Filter }

//invalidb:hotpath
func (f *andFilter) Match(d document.Document) bool {
	for _, c := range f.children {
		if !c.Match(d) {
			return false
		}
	}
	return true
}

// orFilter matches when at least one child matches.
type orFilter struct{ children []Filter }

//invalidb:hotpath
func (f *orFilter) Match(d document.Document) bool {
	for _, c := range f.children {
		if c.Match(d) {
			return true
		}
	}
	return false
}

// norFilter matches when no child matches.
type norFilter struct{ children []Filter }

//invalidb:hotpath
func (f *norFilter) Match(d document.Document) bool {
	for _, c := range f.children {
		if c.Match(d) {
			return false
		}
	}
	return true
}

// fieldFilter applies one or more predicates to a dotted field path. All
// predicates must hold ({age: {$gt: 5, $lt: 9}} is a conjunction).
type fieldFilter struct {
	path  document.Path
	preds []predicate
}

// Match resolves the path once. On a document with no array on the way the
// path reaches exactly one value and every predicate tests it directly;
// otherwise each predicate walks the fan-out itself (DESIGN.md §7,
// "Compiled evaluation").
//
//invalidb:hotpath
func (f *fieldFilter) Match(d document.Document) bool {
	var vs values
	if v, ok := f.path.Single(d); ok {
		vs.one = v
	} else {
		vs.path, vs.doc = &f.path, d
	}
	for _, p := range f.preds {
		if !p.match(vs) {
			return false
		}
	}
	return true
}

// values is what a field path reaches in one document, as predicates see
// it: the single value of an array-free traversal, or (path set) the
// fan-out, walked on demand rather than materialised.
type values struct {
	one  any
	path *document.Path
	doc  document.Document
}

// predicate is a field-level condition over the values a path reaches.
// Every operator is "some reached value passes a test" (anyValue), or a
// negation or conjunction of such.
type predicate interface {
	match(vs values) bool
}

// anyValue holds when at least one reached value passes the operator's
// per-value test. With leaves set the reached values are extended by
// MongoDB's implicit array semantics for scalar operators: an array value
// also offers each of its elements. The tests are pointers built at compile
// time, so evaluating one allocates nothing.
type anyValue struct {
	test   document.Visitor
	leaves bool
}

//invalidb:hotpath
func (p anyValue) match(vs values) bool {
	switch {
	case vs.path == nil && p.leaves:
		return document.VisitLeaves(vs.one, p.test)
	case vs.path == nil:
		return p.test.Visit(vs.one)
	case p.leaves:
		return vs.path.WalkLeaves(vs.doc, p.test)
	default:
		return vs.path.Walk(vs.doc, p.test)
	}
}

// notPred negates a field-level predicate: {field: {$not: {...}}}, and the
// negated operators $ne, $nin and {$exists: false}.
type notPred struct{ inner predicate }

//invalidb:hotpath
func (p notPred) match(vs values) bool { return !p.inner.match(vs) }

// multiPred bundles several predicates into one (used by $not over an
// operator document with multiple operators).
type multiPred struct{ preds []predicate }

//invalidb:hotpath
func (p multiPred) match(vs values) bool {
	for _, q := range p.preds {
		if !q.match(vs) {
			return false
		}
	}
	return true
}

// operand is a filter constant classified once at compile time — type
// bracket, numeric value as float64 (and as int64 when it is one), string
// value — so comparing a document value against it is a type switch on the
// value, not a generic document.Compare.
type operand struct {
	raw     any
	bracket int
	f       float64
	i       int64
	isInt   bool
	s       string
}

func newOperand(v any) operand {
	o := operand{raw: v, bracket: bracketOf(v)}
	switch t := v.(type) {
	case int64:
		o.f, o.i, o.isInt = float64(t), t, true
	case float64:
		o.f = t
	case string:
		o.s = t
	}
	return o
}

// compare orders a document value against the operand; ok is false when v
// is missing or lies in a different type bracket (numbers never compare
// against strings, etc.), matching MongoDB behaviour.
//
//invalidb:hotpath
func (o *operand) compare(v any) (c int, ok bool) {
	switch o.bracket {
	case bracketNumber:
		switch t := v.(type) {
		case float64:
			return document.CompareFloats(t, o.f), true
		case int64:
			if !o.isInt {
				return document.CompareFloats(float64(t), o.f), true
			}
			// Both integers: compare in int64 space to avoid float rounding.
			switch {
			case t < o.i:
				return -1, true
			case t > o.i:
				return 1, true
			}
			return 0, true
		}
		return 0, false
	case bracketString:
		if s, isStr := v.(string); isStr {
			return strings.Compare(s, o.s), true
		}
		return 0, false
	}
	if document.IsMissing(v) || bracketOf(v) != o.bracket {
		return 0, false
	}
	return document.Compare(v, o.raw), true
}

// equals is $eq on one value. A null operand also matches a missing field,
// as in MongoDB.
//
//invalidb:hotpath
func (o *operand) equals(v any) bool {
	if document.IsMissing(v) {
		return o.raw == nil
	}
	c, ok := o.compare(v)
	return ok && c == 0
}

// eqTest implements $eq (and bare {field: value} equality); $ne is its
// negation over all values.
type eqTest struct{ operand operand }

//invalidb:hotpath
func (p *eqTest) Visit(v any) bool { return p.operand.equals(v) }

// cmpOp is the kind of range comparison.
type cmpOp uint8

const (
	opGT cmpOp = iota
	opGTE
	opLT
	opLTE
)

// cmpTest implements $gt/$gte/$lt/$lte. Range comparisons only consider
// values in the same type bracket as the operand.
type cmpTest struct {
	op      cmpOp
	operand operand
}

//invalidb:hotpath
func (p *cmpTest) Visit(v any) bool {
	c, ok := p.operand.compare(v)
	if !ok {
		return false
	}
	switch p.op {
	case opGT:
		return c > 0
	case opGTE:
		return c >= 0
	case opLT:
		return c < 0
	default:
		return c <= 0
	}
}

// Type brackets for range-comparison gating, mirroring document's ordering.
const (
	bracketNull = iota + 1
	bracketNumber
	bracketString
	bracketObject
	bracketArray
	bracketBool
	bracketOther
)

func bracketOf(v any) int {
	switch v.(type) {
	case nil:
		return bracketNull
	case int64, float64, int, float32:
		return bracketNumber
	case string:
		return bracketString
	case map[string]any, document.Document:
		return bracketObject
	case []any:
		return bracketArray
	case bool:
		return bracketBool
	default:
		return bracketOther
	}
}

// inTest implements $in: the value equals any operand. Operands may include
// regexes (as parsed *regexp.Regexp), which match string values. $nin is its
// negation.
type inTest struct {
	operands []operand
	hasNull  bool
	regexes  []*regexp.Regexp
}

//invalidb:hotpath
func (p *inTest) Visit(v any) bool {
	if document.IsMissing(v) {
		return p.hasNull
	}
	for i := range p.operands {
		if c, ok := p.operands[i].compare(v); ok && c == 0 {
			return true
		}
	}
	if s, ok := v.(string); ok {
		for _, re := range p.regexes {
			if re.MatchString(s) {
				return true
			}
		}
	}
	return false
}

// presentTest backs $exists: a reached value that is not Missing.
type presentTest struct{}

//invalidb:hotpath
func (*presentTest) Visit(v any) bool { return !document.IsMissing(v) }

// modTest implements $mod: value % divisor == remainder, integers only.
type modTest struct {
	divisor, remainder int64
}

//invalidb:hotpath
func (p *modTest) Visit(v any) bool {
	switch t := v.(type) {
	case int64:
		return t%p.divisor == p.remainder
	case float64:
		return int64(t)%p.divisor == p.remainder
	default:
		return false
	}
}

// regexTest implements $regex on string values.
type regexTest struct{ re *regexp.Regexp }

//invalidb:hotpath
func (p *regexTest) Visit(v any) bool {
	s, ok := v.(string)
	return ok && p.re.MatchString(s)
}

// sizeTest implements $size: the field value is an array of exactly n
// elements. It applies to the array itself, not its elements.
type sizeTest struct{ n int }

//invalidb:hotpath
func (p *sizeTest) Visit(v any) bool {
	arr, ok := v.([]any)
	return ok && len(arr) == p.n
}

// allTest implements $all: the field's array (or single value) contains every
// operand. Operands may be $elemMatch sub-filters.
type allTest struct {
	operands []any
	elems    []Filter // $elemMatch entries
}

func (p *allTest) Visit(v any) bool {
	if document.IsMissing(v) {
		return false
	}
	arr, isArr := v.([]any)
	for _, o := range p.operands {
		found := false
		if isArr {
			for _, e := range arr {
				if document.Equal(e, o) {
					found = true
					break
				}
			}
		} else if document.Equal(v, o) {
			found = true
		}
		if !found {
			return false
		}
	}
	for _, em := range p.elems {
		if !isArr {
			return false
		}
		found := false
		for _, e := range arr {
			if matchElem(em, e) {
				found = true
				break
			}
		}
		if !found {
			return false
		}
	}
	return true
}

// elemMatchTest implements $elemMatch: any element of the array satisfies
// the embedded filter.
type elemMatchTest struct{ sub Filter }

func (p *elemMatchTest) Visit(v any) bool {
	arr, ok := v.([]any)
	if !ok {
		return false
	}
	for _, e := range arr {
		if matchElem(p.sub, e) {
			return true
		}
	}
	return false
}

// matchElem evaluates a filter against a single array element. Document
// elements are matched directly; scalar elements are wrapped under a
// sentinel field so operator-only $elemMatch forms ({$gt: 5}) can reuse the
// standard field machinery.
func matchElem(f Filter, e any) bool {
	if m, ok := e.(map[string]any); ok {
		if f.Match(document.Document(m)) {
			return true
		}
	}
	return f.Match(document.Document{elemSentinel: e})
}

// elemSentinel is the synthetic field name scalar $elemMatch operands are
// evaluated under. It contains a NUL byte so it cannot collide with a real
// field.
const elemSentinel = "\x00elem"

// typeTest implements $type with string aliases.
type typeTest struct{ name string }

//invalidb:hotpath
func (p *typeTest) Visit(v any) bool { return typeNameMatches(p.name, v) }

func typeNameMatches(name string, v any) bool {
	switch name {
	case "null":
		return v == nil
	case "bool":
		_, ok := v.(bool)
		return ok
	case "int", "long":
		_, ok := v.(int64)
		return ok
	case "double":
		_, ok := v.(float64)
		return ok
	case "number":
		switch v.(type) {
		case int64, float64:
			return true
		}
		return false
	case "string":
		_, ok := v.(string)
		return ok
	case "object":
		switch v.(type) {
		case map[string]any, document.Document:
			return true
		}
		return false
	case "array":
		_, ok := v.([]any)
		return ok
	default:
		return false
	}
}

// geoWithinTest implements $geoWithin for $box, $centerSphere, $polygon and
// GeoJSON $geometry polygons.
type geoWithinTest struct{ shape geo.Shape }

func (p *geoWithinTest) Visit(v any) bool {
	if pt, ok := geo.ParsePoint(v); ok {
		return p.shape.Contains(pt)
	}
	// A field holding an array of points matches when any point is inside.
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			if pt, ok := geo.ParsePoint(e); ok && p.shape.Contains(pt) {
				return true
			}
		}
	}
	return false
}

// nearSphereTest implements $nearSphere with $maxDistance (radians) as a
// pure filter: distance ordering is delegated to an explicit sort in the
// pull-based engine, since real-time matching is per-record.
type nearSphereTest struct {
	center geo.Point
	maxRad float64
}

func (p *nearSphereTest) Visit(v any) bool {
	pt, ok := geo.ParsePoint(v)
	return ok && geo.DistanceRad(p.center, pt) <= p.maxRad
}

// textFilter implements the top-level $text operator: case-insensitive term
// search over every string value in the document (this engine is index-free,
// so the "text index" spans all string fields). Terms are OR-ed, quoted
// phrases must all be present, and -negated terms must be absent, following
// MongoDB's $search grammar.
type textFilter struct {
	terms    []string
	phrases  []string
	negated  []string
	caseSens bool
}

//invalidb:hotpath
func (f *textFilter) Match(d document.Document) bool {
	//invalidb:allow hotpathalloc $text is defined over the concatenation of every string in the document; building it is the operator's cost
	return f.search(d)
}

func (f *textFilter) search(d document.Document) bool {
	text := collectText(map[string]any(d))
	if !f.caseSens {
		text = strings.ToLower(text)
	}
	for _, n := range f.negated {
		if strings.Contains(text, n) {
			return false
		}
	}
	for _, ph := range f.phrases {
		if !strings.Contains(text, ph) {
			return false
		}
	}
	if len(f.terms) == 0 {
		return len(f.phrases) > 0 // phrase-only queries already passed
	}
	for _, term := range f.terms {
		if containsWord(text, term) {
			return true
		}
	}
	return false
}

func collectText(v any) string {
	var sb strings.Builder
	var walk func(any)
	walk = func(v any) {
		switch t := v.(type) {
		case string:
			sb.WriteString(t)
			sb.WriteByte(' ')
		case map[string]any:
			for _, e := range t {
				walk(e)
			}
		case document.Document:
			walk(map[string]any(t))
		case []any:
			for _, e := range t {
				walk(e)
			}
		}
	}
	walk(v)
	return sb.String()
}

func containsWord(text, word string) bool {
	idx := 0
	for {
		i := strings.Index(text[idx:], word)
		if i < 0 {
			return false
		}
		start := idx + i
		end := start + len(word)
		startOK := start == 0 || isWordBoundary(text[start-1])
		endOK := end == len(text) || isWordBoundary(text[end])
		if startOK && endOK {
			return true
		}
		idx = start + 1
	}
}

func isWordBoundary(b byte) bool {
	return !(b >= 'a' && b <= 'z' || b >= 'A' && b <= 'Z' || b >= '0' && b <= '9')
}

// matchAll is the empty filter.
type matchAll struct{}

//invalidb:hotpath
func (matchAll) Match(document.Document) bool { return true }
