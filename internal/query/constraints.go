package query

import (
	"sort"
	"strings"

	"invalidb/internal/document"
	"invalidb/internal/geo"
)

// ConstraintKind classifies an indexable necessary condition by the index
// family that serves it.
type ConstraintKind uint8

const (
	// ConstraintEquality: the field must equal one of Values (scalar
	// string/bool/number). Served by a hash index.
	ConstraintEquality ConstraintKind = iota
	// ConstraintText: the document must contain at least one of Tokens as a
	// word, anywhere in its text. Served by an inverted token index.
	ConstraintText
	// ConstraintGeo: the field must hold a point inside Bound. Served by a
	// grid-cell index.
	ConstraintGeo
	// ConstraintInterval: the field's numeric value must lie in Interval.
	// Served by an interval tree.
	ConstraintInterval
)

// Constraint is one necessary condition extracted from a query's filter: a
// document that violates it cannot match the query. The matching layer
// registers each query under exactly one constraint (the most selective one
// available) and only evaluates the full filter on writes that satisfy it.
type Constraint struct {
	Kind     ConstraintKind
	Path     string    // field path (equality/geo/interval)
	Interval Interval  // ConstraintInterval
	Values   []any     // ConstraintEquality: scalar alternatives ($in) or a single value
	Bound    geo.Bound // ConstraintGeo
	Tokens   []string  // ConstraintText: lowercased word alternatives
}

// IndexableConstraints walks the compiled filter tree and returns every
// necessary condition an index family can serve, most selective first.
// Only conjunctive context is walked: a condition under $or/$nor/$not is
// not necessary for the whole filter and is never extracted. An empty
// result means the query is unindexable and must see every write.
func (q *Query) IndexableConstraints() []Constraint {
	var out []Constraint
	intervals := map[string]*Interval{}
	collectConstraints(q.Filter, &out, intervals)
	// Emit accumulated per-path intervals after the walk so repeated
	// comparisons on one path ({$gte: 3, $lt: 9}) combine into one bound.
	paths := make([]string, 0, len(intervals))
	for p := range intervals {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		out = append(out, Constraint{Kind: ConstraintInterval, Path: p, Interval: *intervals[p]})
	}
	sort.SliceStable(out, func(i, j int) bool {
		return selectivityClass(out[i]) < selectivityClass(out[j])
	})
	return out
}

// selectivityClass orders constraint kinds by typical candidate-set size:
// exact equality < text tokens < geo cells < two-sided intervals <
// half-bounded intervals.
func selectivityClass(c Constraint) int {
	switch c.Kind {
	case ConstraintEquality:
		return 0
	case ConstraintText:
		return 1
	case ConstraintGeo:
		return 2
	default:
		if c.Interval.LoSet && c.Interval.HiSet {
			return 3
		}
		return 4
	}
}

// collectConstraints descends through conjunctive structure only.
func collectConstraints(f Filter, out *[]Constraint, intervals map[string]*Interval) {
	switch t := f.(type) {
	case *andFilter:
		for _, c := range t.children {
			collectConstraints(c, out, intervals)
		}
	case *fieldFilter:
		path := t.path.String()
		if strings.Contains(path, elemSentinel) {
			return
		}
		for _, p := range t.preds {
			constraintFromPred(path, p, out, intervals)
		}
	case *textFilter:
		if tokens, ok := indexableTextTokens(t); ok {
			*out = append(*out, Constraint{Kind: ConstraintText, Tokens: tokens})
		}
	}
	// $or/$nor children and other filter kinds contribute nothing: their
	// conditions are not necessary for the conjunction as a whole.
}

func constraintFromPred(path string, p predicate, out *[]Constraint, intervals map[string]*Interval) {
	switch t := p.(type) {
	case anyValue:
		constraintFromTest(path, t.test, out, intervals)
	case multiPred:
		for _, inner := range t.preds {
			constraintFromPred(path, inner, out, intervals)
		}
	}
	// notPred ($ne, $nin, $not, {$exists: false}) is a negation: unindexable.
}

func constraintFromTest(path string, test document.Visitor, out *[]Constraint, intervals map[string]*Interval) {
	switch t := test.(type) {
	case *eqTest:
		if v, ok := indexableScalar(t.operand.raw); ok {
			*out = append(*out, Constraint{Kind: ConstraintEquality, Path: path, Values: []any{v}})
		}
	case *inTest:
		// $in is a disjunction of equalities: indexable only when every
		// alternative is an indexable scalar and there are no regexes
		// (a regex alternative admits values the hash index cannot enumerate).
		if len(t.regexes) > 0 || len(t.operands) == 0 {
			return
		}
		vals := make([]any, 0, len(t.operands))
		for _, o := range t.operands {
			v, ok := indexableScalar(o.raw)
			if !ok {
				return
			}
			vals = append(vals, v)
		}
		*out = append(*out, Constraint{Kind: ConstraintEquality, Path: path, Values: vals})
	case *cmpTest:
		n, ok := numericOperand(t.operand.raw)
		if !ok {
			return
		}
		iv := intervals[path]
		if iv == nil {
			iv = &Interval{Path: path}
			intervals[path] = iv
		}
		switch t.op {
		case opGTE:
			if !iv.LoSet || n > iv.Lo {
				iv.Lo, iv.LoSet, iv.LoInc = n, true, true
			}
		case opGT:
			if !iv.LoSet || n >= iv.Lo {
				iv.Lo, iv.LoSet, iv.LoInc = n, true, false
			}
		case opLTE:
			if !iv.HiSet || n < iv.Hi {
				iv.Hi, iv.HiSet, iv.HiInc = n, true, true
			}
		case opLT:
			if !iv.HiSet || n <= iv.Hi {
				iv.Hi, iv.HiSet, iv.HiInc = n, true, false
			}
		}
	case *geoWithinTest:
		if b, ok := t.shape.(geo.Bounder); ok {
			bound := b.Bound()
			if bound.Valid() {
				*out = append(*out, Constraint{Kind: ConstraintGeo, Path: path, Bound: bound})
			}
		}
	case *nearSphereTest:
		bound := geo.Circle{Center: t.center, RadiusRad: t.maxRad}.Bound()
		if bound.Valid() {
			*out = append(*out, Constraint{Kind: ConstraintGeo, Path: path, Bound: bound})
		}
	}
	// Everything else ($exists, $regex, $mod, $size, $all, $elemMatch, $type)
	// admits unbounded value sets or constrains structure rather than a
	// hashable value — unindexable.
}

// indexableScalar reports whether an equality operand can key a hash index.
// A nil operand also matches *missing* fields (eqPred semantics), which a
// value-keyed index cannot see, so null equality is not indexable. Numbers
// are normalized to float64: document.Compare equates int64(3) and 3.0, so
// the normalized key is a sound necessary condition.
func indexableScalar(v any) (any, bool) {
	switch t := v.(type) {
	case string:
		return t, true
	case bool:
		return t, true
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return nil, false
	}
}

// indexableTextTokens returns the lowercased term list of a $text filter
// when term matching is a sound index condition. Term matching requires at
// least one term to appear as a word (OR semantics), so the query must be
// registered under every term. A term only corresponds to a document token
// when it is purely ASCII-alphanumeric: containsWord on a term with an
// embedded boundary byte ("hot-dog") matches across token boundaries, which
// token postings cannot see. Phrase-only and negation-only queries carry no
// positive term condition: a phrase is a substring match that can start
// mid-token ("shot dog" contains "hot dog"), so phrases are never used as
// index keys.
func indexableTextTokens(f *textFilter) ([]string, bool) {
	if len(f.terms) == 0 {
		return nil, false
	}
	tokens := make([]string, 0, len(f.terms))
	for _, term := range f.terms {
		lt := strings.ToLower(term)
		if lt == "" || !isASCIIAlnum(lt) {
			return nil, false
		}
		tokens = append(tokens, lt)
	}
	return tokens, true
}

func isASCIIAlnum(s string) bool {
	for i := 0; i < len(s); i++ {
		if isWordBoundary(s[i]) {
			return false
		}
	}
	return true
}
