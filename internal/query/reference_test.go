package query

// The evaluator this package shipped before queries were compiled into
// allocation-free plans (DESIGN.md §7, "Compiled evaluation"), kept verbatim
// — types and functions renamed with a ref prefix, nothing else — as the
// specification the compiled evaluator is fuzzed and table-tested against:
// document.Lookup materialises every value the path reaches, candidates
// expands leaf arrays into a second slice, and each predicate scans it.
// refCompile is the old parser, building this tree; parsing helpers that did
// not change ($text, regex, geo shapes) are shared with the live code.

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"

	"invalidb/internal/document"
	"invalidb/internal/geo"
)

func sameBracket(a, b any) bool {
	return bracketOf(a) == bracketOf(b)
}

// refCompile builds the reference filter tree for a raw filter document.
func refCompile(raw map[string]any) (Filter, error) {
	return refParseFilterDoc(normalizeMap(raw))
}

// refLookup is document.Lookup as it was: every value reachable at the path,
// Missing per absent branch, in one freshly allocated slice.
func refLookup(d document.Document, path string) []any {
	return refLookupValue(map[string]any(d), strings.Split(path, "."))
}

func refLookupValue(cur any, segs []string) []any {
	cur = refNormalize(cur)
	if len(segs) == 0 {
		return []any{cur}
	}
	seg := segs[0]
	switch t := cur.(type) {
	case map[string]any:
		v, ok := t[seg]
		if !ok {
			return []any{document.Missing}
		}
		return refLookupValue(v, segs[1:])
	case []any:
		// Numeric segment: positional index into the array.
		if idx, ok := refArrayIndex(seg); ok {
			if idx < 0 || idx >= len(t) {
				return []any{document.Missing}
			}
			return refLookupValue(t[idx], segs[1:])
		}
		// Otherwise fan out over elements.
		var out []any
		for _, e := range t {
			out = append(out, refLookupValue(e, segs)...)
		}
		if len(out) == 0 {
			out = []any{document.Missing}
		}
		return out
	default:
		return []any{document.Missing}
	}
}

func refArrayIndex(seg string) (int, bool) {
	if seg == "" {
		return 0, false
	}
	n := 0
	for _, r := range seg {
		if r < '0' || r > '9' {
			return 0, false
		}
		n = n*10 + int(r-'0')
	}
	return n, true
}

func refNormalize(v any) any {
	switch t := v.(type) {
	case document.Document:
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

// refGet is document.Get as it was, for the sort-comparator reference.
func refGet(d document.Document, path string) any {
	var cur any = map[string]any(d)
	for _, seg := range strings.Split(path, ".") {
		switch t := refNormalize(cur).(type) {
		case map[string]any:
			v, ok := t[seg]
			if !ok {
				return document.Missing
			}
			cur = v
		case []any:
			idx, ok := refArrayIndex(seg)
			if !ok || idx < 0 || idx >= len(t) {
				return document.Missing
			}
			cur = t[idx]
		default:
			return document.Missing
		}
	}
	return refNormalize(cur)
}

// refCompare is Query.Compare as it was: paths split per comparison.
func refCompare(q *Query, a, b document.Document) int {
	for _, sk := range q.Sort {
		c := document.Compare(refGet(a, sk.Path), refGet(b, sk.Path))
		if sk.Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	ida, _ := a.ID()
	idb, _ := b.ID()
	switch {
	case ida < idb:
		return -1
	case ida > idb:
		return 1
	default:
		return 0
	}
}

// refAndFilter matches when every child matches. An empty conjunction matches
// everything (the `{}` filter).
type refAndFilter struct{ children []Filter }

func (f *refAndFilter) Match(d document.Document) bool {
	for _, c := range f.children {
		if !c.Match(d) {
			return false
		}
	}
	return true
}

// refOrFilter matches when at least one child matches.
type refOrFilter struct{ children []Filter }

func (f *refOrFilter) Match(d document.Document) bool {
	for _, c := range f.children {
		if c.Match(d) {
			return true
		}
	}
	return false
}

// refNorFilter matches when no child matches.
type refNorFilter struct{ children []Filter }

func (f *refNorFilter) Match(d document.Document) bool {
	for _, c := range f.children {
		if c.Match(d) {
			return false
		}
	}
	return true
}

// refFieldFilter applies one or more predicates to a dotted field path. All
// predicates must hold ({age: {$gt: 5, $lt: 9}} is a conjunction).
type refFieldFilter struct {
	path  string
	preds []refPredicate
}

func (f *refFieldFilter) Match(d document.Document) bool {
	vals := refLookup(d, f.path)
	for _, p := range f.preds {
		if !p.eval(vals) {
			return false
		}
	}
	return true
}

// refPredicate is a single field-level operator ($eq, $gt, $regex, ...).
// eval receives the values produced by document.Lookup for the field path —
// one entry per array branch, with document.Missing marking absent branches.
type refPredicate interface {
	eval(vals []any) bool
}

// refCandidates expands lookup values with MongoDB's implicit array semantics:
// for scalar-oriented operators, an array value matches when any of its
// elements matches, and the array itself is also a candidate (so {a: [1,2]}
// can equal-match a stored [1,2]).
func refCandidates(vals []any) []any {
	out := make([]any, 0, len(vals))
	for _, v := range vals {
		out = append(out, v)
		if arr, ok := v.([]any); ok {
			out = append(out, arr...)
		}
	}
	return out
}

// refEqPred implements $eq (and bare {field: value} equality). A null operand
// also matches missing fields, as in MongoDB.
type refEqPred struct{ operand any }

func (p refEqPred) eval(vals []any) bool {
	for _, v := range refCandidates(vals) {
		if document.IsMissing(v) {
			if p.operand == nil {
				return true
			}
			continue
		}
		if document.Equal(v, p.operand) {
			return true
		}
	}
	return false
}

// refNePred implements $ne: the negation of $eq over all refCandidates.
type refNePred struct{ operand any }

func (p refNePred) eval(vals []any) bool { return !(refEqPred{p.operand}).eval(vals) }

// refCmpPred implements $gt/$gte/$lt/$lte. Range comparisons only consider
// refCandidates in the same type bracket as the operand (numbers never compare
// greater than strings, etc.), matching MongoDB behaviour.
type refCmpPred struct {
	op      cmpOp
	operand any
}

func (p refCmpPred) eval(vals []any) bool {
	for _, v := range refCandidates(vals) {
		if document.IsMissing(v) || !sameBracket(v, p.operand) {
			continue
		}
		c := document.Compare(v, p.operand)
		switch p.op {
		case opGT:
			if c > 0 {
				return true
			}
		case opGTE:
			if c >= 0 {
				return true
			}
		case opLT:
			if c < 0 {
				return true
			}
		case opLTE:
			if c <= 0 {
				return true
			}
		}
	}
	return false
}

// refInPred implements $in: any candidate equals any operand. Operands may
// include regexes (as parsed *regexp.Regexp), which match string refCandidates.
type refInPred struct {
	operands []any
	regexes  []*regexp.Regexp
}

func (p refInPred) eval(vals []any) bool {
	for _, v := range refCandidates(vals) {
		if document.IsMissing(v) {
			for _, o := range p.operands {
				if o == nil {
					return true
				}
			}
			continue
		}
		for _, o := range p.operands {
			if document.Equal(v, o) {
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
	}
	return false
}

// refNinPred implements $nin: the negation of $in.
type refNinPred struct{ in refInPred }

func (p refNinPred) eval(vals []any) bool { return !p.in.eval(vals) }

// refExistsPred implements $exists.
type refExistsPred struct{ want bool }

func (p refExistsPred) eval(vals []any) bool {
	present := false
	for _, v := range vals {
		if !document.IsMissing(v) {
			present = true
			break
		}
	}
	return present == p.want
}

// refModPred implements $mod: value % divisor == remainder, integers only.
type refModPred struct {
	divisor, remainder int64
}

func (p refModPred) eval(vals []any) bool {
	for _, v := range refCandidates(vals) {
		var n int64
		switch t := v.(type) {
		case int64:
			n = t
		case float64:
			n = int64(t)
		default:
			continue
		}
		if n%p.divisor == p.remainder {
			return true
		}
	}
	return false
}

// refRegexPred implements $regex on string refCandidates.
type refRegexPred struct{ re *regexp.Regexp }

func (p refRegexPred) eval(vals []any) bool {
	for _, v := range refCandidates(vals) {
		if s, ok := v.(string); ok && p.re.MatchString(s) {
			return true
		}
	}
	return false
}

// refSizePred implements $size: the field value is an array of exactly n
// elements. It applies to the array itself, not its elements.
type refSizePred struct{ n int }

func (p refSizePred) eval(vals []any) bool {
	for _, v := range vals {
		if arr, ok := v.([]any); ok && len(arr) == p.n {
			return true
		}
	}
	return false
}

// refAllPred implements $all: the field's array (or single value) contains every
// operand. Operands may be $elemMatch sub-filters.
type refAllPred struct {
	operands []any
	elems    []Filter // $elemMatch entries
}

func (p refAllPred) eval(vals []any) bool {
	for _, v := range vals {
		if document.IsMissing(v) {
			continue
		}
		if p.allIn(v) {
			return true
		}
	}
	return false
}

func (p refAllPred) allIn(v any) bool {
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
			if refMatchElem(em, e) {
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

// refElemMatchPred implements $elemMatch: any element of the array satisfies
// the embedded filter.
type refElemMatchPred struct{ sub Filter }

func (p refElemMatchPred) eval(vals []any) bool {
	for _, v := range vals {
		arr, ok := v.([]any)
		if !ok {
			continue
		}
		for _, e := range arr {
			if refMatchElem(p.sub, e) {
				return true
			}
		}
	}
	return false
}

// refMatchElem evaluates a filter against a single array element. Document
// elements are matched directly; scalar elements are wrapped under a
// sentinel field so operator-only $elemMatch forms ({$gt: 5}) can reuse the
// standard field machinery.
func refMatchElem(f Filter, e any) bool {
	if m, ok := e.(map[string]any); ok {
		if f.Match(document.Document(m)) {
			return true
		}
	}
	return f.Match(document.Document{elemSentinel: e})
}

// refTypePred implements $type with string aliases.
type refTypePred struct{ name string }

func (p refTypePred) eval(vals []any) bool {
	for _, v := range refCandidates(vals) {
		if document.IsMissing(v) {
			continue
		}
		if typeNameMatches(p.name, v) {
			return true
		}
	}
	return false
}

// refGeoWithinPred implements $geoWithin for $box, $centerSphere, $polygon and
// GeoJSON $geometry polygons.
type refGeoWithinPred struct{ shape geo.Shape }

func (p refGeoWithinPred) eval(vals []any) bool {
	for _, v := range vals {
		if pt, ok := geo.ParsePoint(v); ok {
			if p.shape.Contains(pt) {
				return true
			}
			continue
		}
		// A field holding an array of points matches when any point is inside.
		if arr, ok := v.([]any); ok {
			for _, e := range arr {
				if pt, ok := geo.ParsePoint(e); ok && p.shape.Contains(pt) {
					return true
				}
			}
		}
	}
	return false
}

// refNearSpherePred implements $nearSphere with $maxDistance (radians) as a
// pure filter: distance ordering is delegated to an explicit sort in the
// pull-based engine, since real-time matching is per-record.
type refNearSpherePred struct {
	center geo.Point
	maxRad float64
}

func (p refNearSpherePred) eval(vals []any) bool {
	for _, v := range vals {
		if pt, ok := geo.ParsePoint(v); ok {
			if geo.DistanceRad(p.center, pt) <= p.maxRad {
				return true
			}
		}
	}
	return false
}

// refNotPred negates a field-level refPredicate ({field: {$not: {...}}}).
type refNotPred struct{ inner refPredicate }

func (p refNotPred) eval(vals []any) bool { return !p.inner.eval(vals) }

// refMultiPred bundles several predicates into one (used by $not over an
// operator document with multiple operators).
type refMultiPred struct{ preds []refPredicate }

func (p refMultiPred) eval(vals []any) bool {
	for _, q := range p.preds {
		if !q.eval(vals) {
			return false
		}
	}
	return true
}

func refParseFilterDoc(raw map[string]any) (Filter, error) {
	if len(raw) == 0 {
		return matchAll{}, nil
	}
	var children []Filter
	for _, key := range sortedKeys(raw) {
		v := raw[key]
		switch {
		case key == "$and" || key == "$or" || key == "$nor":
			subs, err := refParseFilterList(key, v)
			if err != nil {
				return nil, err
			}
			switch key {
			case "$and":
				children = append(children, &refAndFilter{subs})
			case "$or":
				children = append(children, &refOrFilter{subs})
			case "$nor":
				children = append(children, &refNorFilter{subs})
			}
		case key == "$text":
			tf, err := parseText(v)
			if err != nil {
				return nil, err
			}
			children = append(children, tf)
		case key == "$comment":
			// ignored, as in MongoDB
		case strings.HasPrefix(key, "$"):
			return nil, fmt.Errorf("query: unsupported top-level operator %q", key)
		default:
			ff, err := refParseFieldCondition(key, v)
			if err != nil {
				return nil, err
			}
			children = append(children, ff)
		}
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return &refAndFilter{children}, nil
}

func refParseFilterList(op string, v any) ([]Filter, error) {
	arr, ok := v.([]any)
	if !ok || len(arr) == 0 {
		return nil, fmt.Errorf("query: %s expects a non-empty array", op)
	}
	subs := make([]Filter, 0, len(arr))
	for i, e := range arr {
		m, ok := e.(map[string]any)
		if !ok {
			return nil, fmt.Errorf("query: %s[%d] is not a filter document", op, i)
		}
		f, err := refParseFilterDoc(m)
		if err != nil {
			return nil, err
		}
		subs = append(subs, f)
	}
	return subs, nil
}

// refParseFieldCondition handles {field: value} and {field: {$op: ...}} forms.
func refParseFieldCondition(path string, v any) (Filter, error) {
	if err := validatePath(path); err != nil {
		return nil, err
	}
	opDoc, isOps := v.(map[string]any)
	if isOps && hasOperatorKey(opDoc) {
		preds, err := refParseOperatorDoc(path, opDoc)
		if err != nil {
			return nil, err
		}
		return &refFieldFilter{path: path, preds: preds}, nil
	}
	// Bare value: implicit $eq (an embedded document without operators is an
	// exact-object equality match).
	return &refFieldFilter{path: path, preds: []refPredicate{refEqPred{v}}}, nil
}

func refParseOperatorDoc(path string, ops map[string]any) ([]refPredicate, error) {
	var preds []refPredicate
	// $regex and $options pair up; collect first.
	if _, ok := ops["$options"]; ok {
		if _, ok := ops["$regex"]; !ok {
			return nil, fmt.Errorf("query: %s: $options without $regex", path)
		}
	}
	for _, op := range sortedKeys(ops) {
		operand := ops[op]
		switch op {
		case "$eq":
			preds = append(preds, refEqPred{operand})
		case "$ne":
			preds = append(preds, refNePred{operand})
		case "$gt":
			preds = append(preds, refCmpPred{opGT, operand})
		case "$gte":
			preds = append(preds, refCmpPred{opGTE, operand})
		case "$lt":
			preds = append(preds, refCmpPred{opLT, operand})
		case "$lte":
			preds = append(preds, refCmpPred{opLTE, operand})
		case "$in", "$nin":
			p, err := refParseIn(path, op, operand)
			if err != nil {
				return nil, err
			}
			if op == "$in" {
				preds = append(preds, p)
			} else {
				preds = append(preds, refNinPred{p})
			}
		case "$exists":
			b, ok := operand.(bool)
			if !ok {
				// MongoDB accepts truthy numbers; we accept 0/1 for parity.
				if n, isNum := operand.(int64); isNum {
					b, ok = n != 0, true
				}
			}
			if !ok {
				return nil, fmt.Errorf("query: %s: $exists expects a boolean", path)
			}
			preds = append(preds, refExistsPred{b})
		case "$mod":
			arr, ok := operand.([]any)
			if !ok || len(arr) != 2 {
				return nil, fmt.Errorf("query: %s: $mod expects [divisor, remainder]", path)
			}
			div, ok1 := toInt64(arr[0])
			rem, ok2 := toInt64(arr[1])
			if !ok1 || !ok2 {
				return nil, fmt.Errorf("query: %s: $mod operands must be numbers", path)
			}
			if div == 0 {
				return nil, fmt.Errorf("query: %s: $mod by zero", path)
			}
			preds = append(preds, refModPred{div, rem})
		case "$regex":
			re, err := compileRegex(operand, ops["$options"])
			if err != nil {
				return nil, fmt.Errorf("query: %s: %w", path, err)
			}
			preds = append(preds, refRegexPred{re})
		case "$options":
			// consumed by $regex
		case "$size":
			n, ok := toInt64(operand)
			if !ok || n < 0 {
				return nil, fmt.Errorf("query: %s: $size expects a non-negative integer", path)
			}
			preds = append(preds, refSizePred{int(n)})
		case "$all":
			p, err := refParseAll(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
		case "$elemMatch":
			sub, err := refParseElemMatch(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, refElemMatchPred{sub})
		case "$type":
			name, ok := operand.(string)
			if !ok {
				return nil, fmt.Errorf("query: %s: $type expects a type name string", path)
			}
			switch name {
			case "null", "bool", "int", "long", "double", "number", "string", "object", "array":
			default:
				return nil, fmt.Errorf("query: %s: unknown $type %q", path, name)
			}
			preds = append(preds, refTypePred{name})
		case "$not":
			inner, err := refParseNot(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, inner)
		case "$geoWithin":
			shape, err := parseGeoWithin(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, refGeoWithinPred{shape})
		case "$nearSphere", "$near":
			center, maxRad, err := parseNearSphere(path, operand, ops["$maxDistance"])
			if err != nil {
				return nil, err
			}
			preds = append(preds, refNearSpherePred{center: center, maxRad: maxRad})
		case "$maxDistance":
			// consumed by $nearSphere/$near
			if _, ok := ops["$nearSphere"]; !ok {
				if _, ok := ops["$near"]; !ok {
					return nil, fmt.Errorf("query: %s: $maxDistance without $nearSphere", path)
				}
			}
		default:
			return nil, fmt.Errorf("query: %s: unsupported operator %q", path, op)
		}
	}
	return preds, nil
}

func refParseIn(path, op string, operand any) (refInPred, error) {
	arr, ok := operand.([]any)
	if !ok {
		return refInPred{}, fmt.Errorf("query: %s: %s expects an array", path, op)
	}
	p := refInPred{}
	for _, e := range arr {
		if m, ok := e.(map[string]any); ok {
			if pat, ok := m["$regex"]; ok {
				re, err := compileRegex(pat, m["$options"])
				if err != nil {
					return refInPred{}, fmt.Errorf("query: %s: %w", path, err)
				}
				p.regexes = append(p.regexes, re)
				continue
			}
		}
		p.operands = append(p.operands, e)
	}
	return p, nil
}

func refParseAll(path string, operand any) (refPredicate, error) {
	arr, ok := operand.([]any)
	if !ok {
		return nil, fmt.Errorf("query: %s: $all expects an array", path)
	}
	p := refAllPred{}
	for _, e := range arr {
		if m, ok := e.(map[string]any); ok {
			if emRaw, ok := m["$elemMatch"]; ok {
				sub, err := refParseElemMatch(path, emRaw)
				if err != nil {
					return nil, err
				}
				p.elems = append(p.elems, sub)
				continue
			}
		}
		p.operands = append(p.operands, e)
	}
	return p, nil
}

func refParseElemMatch(path string, operand any) (Filter, error) {
	m, ok := operand.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("query: %s: $elemMatch expects a document", path)
	}
	if hasOperatorKey(m) && !hasNonOperatorKey(m) {
		// Operator-only form: predicates over the scalar element itself.
		preds, err := refParseOperatorDoc(path+".$elemMatch", m)
		if err != nil {
			return nil, err
		}
		return &refFieldFilter{path: elemSentinel, preds: preds}, nil
	}
	return refParseFilterDoc(m)
}

func refParseNot(path string, operand any) (refPredicate, error) {
	switch t := operand.(type) {
	case map[string]any:
		if !hasOperatorKey(t) {
			return nil, fmt.Errorf("query: %s: $not expects an operator document or regex", path)
		}
		preds, err := refParseOperatorDoc(path, t)
		if err != nil {
			return nil, err
		}
		if len(preds) == 1 {
			return refNotPred{preds[0]}, nil
		}
		return refNotPred{refMultiPred{preds}}, nil
	case string:
		// Regex shorthand: {field: {$not: "pattern"}} is non-standard in
		// MongoDB (it wants /regex/) but the string form is the natural JSON
		// mapping, so we accept it.
		re, err := compileRegex(t, nil)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", path, err)
		}
		return refNotPred{refRegexPred{re}}, nil
	default:
		return nil, fmt.Errorf("query: %s: $not expects an operator document or regex", path)
	}
}
