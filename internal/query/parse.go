package query

import (
	"fmt"
	"regexp"
	"strings"

	"invalidb/internal/document"
	"invalidb/internal/geo"
)

// ParseFilter compiles a MongoDB-syntax filter document (already decoded into
// generic values) into an executable Filter. Supported operators:
//
//	comparison:  $eq $ne $gt $gte $lt $lte $in $nin
//	logical:     $and $or $nor $not
//	element:     $exists $type
//	evaluation:  $regex (+$options) $mod $text
//	array:       $all $size $elemMatch
//	geospatial:  $geoWithin ($box $centerSphere $polygon $geometry) $nearSphere
func ParseFilter(raw map[string]any) (Filter, error) {
	raw = normalizeMap(raw)
	return parseFilterDoc(raw)
}

func normalizeMap(m map[string]any) map[string]any {
	return map[string]any(document.Normalize(document.Document(m)))
}

func parseFilterDoc(raw map[string]any) (Filter, error) {
	if len(raw) == 0 {
		return matchAll{}, nil
	}
	var children []Filter
	for _, key := range sortedKeys(raw) {
		v := raw[key]
		switch {
		case key == "$and" || key == "$or" || key == "$nor":
			subs, err := parseFilterList(key, v)
			if err != nil {
				return nil, err
			}
			switch key {
			case "$and":
				children = append(children, &andFilter{subs})
			case "$or":
				children = append(children, &orFilter{subs})
			case "$nor":
				children = append(children, &norFilter{subs})
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
			ff, err := parseFieldCondition(key, v)
			if err != nil {
				return nil, err
			}
			children = append(children, ff)
		}
	}
	if len(children) == 1 {
		return children[0], nil
	}
	return &andFilter{children}, nil
}

func parseFilterList(op string, v any) ([]Filter, error) {
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
		f, err := parseFilterDoc(m)
		if err != nil {
			return nil, err
		}
		subs = append(subs, f)
	}
	return subs, nil
}

// parseFieldCondition handles {field: value} and {field: {$op: ...}} forms.
func parseFieldCondition(path string, v any) (Filter, error) {
	if err := validatePath(path); err != nil {
		return nil, err
	}
	opDoc, isOps := v.(map[string]any)
	if isOps && hasOperatorKey(opDoc) {
		preds, err := parseOperatorDoc(path, opDoc)
		if err != nil {
			return nil, err
		}
		return &fieldFilter{path: document.ParsePath(path), preds: preds}, nil
	}
	// Bare value: implicit $eq (an embedded document without operators is an
	// exact-object equality match).
	return &fieldFilter{path: document.ParsePath(path), preds: []predicate{eqPredicate(v)}}, nil
}

func hasOperatorKey(m map[string]any) bool {
	for k := range m {
		if strings.HasPrefix(k, "$") {
			return true
		}
	}
	return false
}

func parseOperatorDoc(path string, ops map[string]any) ([]predicate, error) {
	var preds []predicate
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
			preds = append(preds, eqPredicate(operand))
		case "$ne":
			preds = append(preds, notPred{eqPredicate(operand)})
		case "$gt":
			preds = append(preds, cmpPredicate(opGT, operand))
		case "$gte":
			preds = append(preds, cmpPredicate(opGTE, operand))
		case "$lt":
			preds = append(preds, cmpPredicate(opLT, operand))
		case "$lte":
			preds = append(preds, cmpPredicate(opLTE, operand))
		case "$in", "$nin":
			p, err := parseIn(path, op, operand)
			if err != nil {
				return nil, err
			}
			if op == "$in" {
				preds = append(preds, p)
			} else {
				preds = append(preds, notPred{p})
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
			var p predicate = anyValue{test: &presentTest{}}
			if !b {
				p = notPred{p}
			}
			preds = append(preds, p)
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
			preds = append(preds, anyValue{test: &modTest{div, rem}, leaves: true})
		case "$regex":
			re, err := compileRegex(operand, ops["$options"])
			if err != nil {
				return nil, fmt.Errorf("query: %s: %w", path, err)
			}
			preds = append(preds, anyValue{test: &regexTest{re}, leaves: true})
		case "$options":
			// consumed by $regex
		case "$size":
			n, ok := toInt64(operand)
			if !ok || n < 0 {
				return nil, fmt.Errorf("query: %s: $size expects a non-negative integer", path)
			}
			preds = append(preds, anyValue{test: &sizeTest{int(n)}})
		case "$all":
			p, err := parseAll(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, p)
		case "$elemMatch":
			sub, err := parseElemMatch(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, anyValue{test: &elemMatchTest{sub}})
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
			preds = append(preds, anyValue{test: &typeTest{name}, leaves: true})
		case "$not":
			inner, err := parseNot(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, inner)
		case "$geoWithin":
			shape, err := parseGeoWithin(path, operand)
			if err != nil {
				return nil, err
			}
			preds = append(preds, anyValue{test: &geoWithinTest{shape}})
		case "$nearSphere", "$near":
			center, maxRad, err := parseNearSphere(path, operand, ops["$maxDistance"])
			if err != nil {
				return nil, err
			}
			preds = append(preds, anyValue{test: &nearSphereTest{center: center, maxRad: maxRad}})
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

// eqPredicate and cmpPredicate classify the operand once (see operand).
func eqPredicate(v any) predicate {
	return anyValue{test: &eqTest{newOperand(v)}, leaves: true}
}

func cmpPredicate(op cmpOp, v any) predicate {
	return anyValue{test: &cmpTest{op, newOperand(v)}, leaves: true}
}

func parseIn(path, op string, operand any) (predicate, error) {
	arr, ok := operand.([]any)
	if !ok {
		return nil, fmt.Errorf("query: %s: %s expects an array", path, op)
	}
	p := &inTest{}
	for _, e := range arr {
		if m, ok := e.(map[string]any); ok {
			if pat, ok := m["$regex"]; ok {
				re, err := compileRegex(pat, m["$options"])
				if err != nil {
					return nil, fmt.Errorf("query: %s: %w", path, err)
				}
				p.regexes = append(p.regexes, re)
				continue
			}
		}
		p.operands = append(p.operands, newOperand(e))
		p.hasNull = p.hasNull || e == nil
	}
	return anyValue{test: p, leaves: true}, nil
}

func parseAll(path string, operand any) (predicate, error) {
	arr, ok := operand.([]any)
	if !ok {
		return nil, fmt.Errorf("query: %s: $all expects an array", path)
	}
	p := &allTest{}
	for _, e := range arr {
		if m, ok := e.(map[string]any); ok {
			if emRaw, ok := m["$elemMatch"]; ok {
				sub, err := parseElemMatch(path, emRaw)
				if err != nil {
					return nil, err
				}
				p.elems = append(p.elems, sub)
				continue
			}
		}
		p.operands = append(p.operands, e)
	}
	return anyValue{test: p}, nil
}

func parseElemMatch(path string, operand any) (Filter, error) {
	m, ok := operand.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("query: %s: $elemMatch expects a document", path)
	}
	if hasOperatorKey(m) && !hasNonOperatorKey(m) {
		// Operator-only form: predicates over the scalar element itself.
		preds, err := parseOperatorDoc(path+".$elemMatch", m)
		if err != nil {
			return nil, err
		}
		return &fieldFilter{path: document.ParsePath(elemSentinel), preds: preds}, nil
	}
	return parseFilterDoc(m)
}

func hasNonOperatorKey(m map[string]any) bool {
	for k := range m {
		if !strings.HasPrefix(k, "$") {
			return true
		}
	}
	return false
}

func parseNot(path string, operand any) (predicate, error) {
	switch t := operand.(type) {
	case map[string]any:
		if !hasOperatorKey(t) {
			return nil, fmt.Errorf("query: %s: $not expects an operator document or regex", path)
		}
		preds, err := parseOperatorDoc(path, t)
		if err != nil {
			return nil, err
		}
		if len(preds) == 1 {
			return notPred{preds[0]}, nil
		}
		return notPred{multiPred{preds}}, nil
	case string:
		// Regex shorthand: {field: {$not: "pattern"}} is non-standard in
		// MongoDB (it wants /regex/) but the string form is the natural JSON
		// mapping, so we accept it.
		re, err := compileRegex(t, nil)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", path, err)
		}
		return notPred{anyValue{test: &regexTest{re}, leaves: true}}, nil
	default:
		return nil, fmt.Errorf("query: %s: $not expects an operator document or regex", path)
	}
}

func parseText(v any) (Filter, error) {
	m, ok := v.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("query: $text expects {$search: ...}")
	}
	search, ok := m["$search"].(string)
	if !ok {
		return nil, fmt.Errorf("query: $text.$search must be a string")
	}
	caseSens := false
	if cs, ok := m["$caseSensitive"].(bool); ok {
		caseSens = cs
	}
	tf := &textFilter{caseSens: caseSens}
	for _, tok := range tokenizeSearch(search) {
		switch {
		case strings.HasPrefix(tok, "-"):
			if t := tok[1:]; t != "" {
				tf.negated = append(tf.negated, normCase(t, caseSens))
			}
		case strings.HasPrefix(tok, `"`) && strings.HasSuffix(tok, `"`) && len(tok) >= 2:
			tf.phrases = append(tf.phrases, normCase(strings.Trim(tok, `"`), caseSens))
		default:
			tf.terms = append(tf.terms, normCase(tok, caseSens))
		}
	}
	if len(tf.terms) == 0 && len(tf.phrases) == 0 && len(tf.negated) == 0 {
		return nil, fmt.Errorf("query: $text.$search is empty")
	}
	return tf, nil
}

func normCase(s string, caseSens bool) string {
	if caseSens {
		return s
	}
	return strings.ToLower(s)
}

// tokenizeSearch splits a $search string into terms, keeping quoted phrases
// as single tokens (with quotes) and attaching a leading '-' to its term.
func tokenizeSearch(s string) []string {
	var toks []string
	i := 0
	for i < len(s) {
		for i < len(s) && s[i] == ' ' {
			i++
		}
		if i >= len(s) {
			break
		}
		neg := false
		if s[i] == '-' {
			neg = true
			i++
		}
		if i < len(s) && s[i] == '"' {
			j := strings.IndexByte(s[i+1:], '"')
			if j < 0 {
				toks = append(toks, withNeg(neg, `"`+s[i+1:]+`"`))
				break
			}
			toks = append(toks, withNeg(neg, s[i:i+j+2]))
			i += j + 2
			continue
		}
		j := strings.IndexByte(s[i:], ' ')
		if j < 0 {
			j = len(s) - i
		}
		if j > 0 {
			toks = append(toks, withNeg(neg, s[i:i+j]))
		}
		i += j
	}
	return toks
}

func withNeg(neg bool, tok string) string {
	if neg {
		return "-" + strings.Trim(tok, `"`)
	}
	return tok
}

func parseGeoWithin(path string, operand any) (geo.Shape, error) {
	m, ok := operand.(map[string]any)
	if !ok || len(m) != 1 {
		return nil, fmt.Errorf("query: %s: $geoWithin expects exactly one shape operator", path)
	}
	for k, v := range m {
		switch k {
		case "$box":
			pts, err := parsePointList(path, v, 2)
			if err != nil {
				return nil, err
			}
			return geo.NewBox(pts[0], pts[1]), nil
		case "$centerSphere":
			arr, ok := v.([]any)
			if !ok || len(arr) != 2 {
				return nil, fmt.Errorf("query: %s: $centerSphere expects [center, radius]", path)
			}
			center, ok := geo.ParsePoint(arr[0])
			if !ok {
				return nil, fmt.Errorf("query: %s: $centerSphere center invalid", path)
			}
			rad, ok := toFloat64(arr[1])
			if !ok || rad < 0 {
				return nil, fmt.Errorf("query: %s: $centerSphere radius invalid", path)
			}
			return geo.Circle{Center: center, RadiusRad: rad}, nil
		case "$polygon":
			pts, err := parsePointList(path, v, 3)
			if err != nil {
				return nil, err
			}
			pg, err := geo.NewPolygon(pts)
			if err != nil {
				return nil, fmt.Errorf("query: %s: %w", path, err)
			}
			return pg, nil
		case "$geometry":
			g, ok := v.(map[string]any)
			if !ok || g["type"] != "Polygon" {
				return nil, fmt.Errorf("query: %s: $geometry supports Polygon only", path)
			}
			rings, ok := g["coordinates"].([]any)
			if !ok || len(rings) == 0 {
				return nil, fmt.Errorf("query: %s: $geometry.coordinates invalid", path)
			}
			pts, err := parsePointList(path, rings[0], 3)
			if err != nil {
				return nil, err
			}
			pg, err := geo.NewPolygon(pts)
			if err != nil {
				return nil, fmt.Errorf("query: %s: %w", path, err)
			}
			return pg, nil
		default:
			return nil, fmt.Errorf("query: %s: unsupported $geoWithin shape %q", path, k)
		}
	}
	return nil, fmt.Errorf("query: %s: empty $geoWithin", path)
}

func parseNearSphere(path string, operand any, maxDist any) (center geo.Point, maxRad float64, err error) {
	hasMax := false
	switch t := operand.(type) {
	case map[string]any:
		if g, ok := t["$geometry"].(map[string]any); ok {
			pt, ok := geo.ParsePoint(g)
			if !ok {
				return center, 0, fmt.Errorf("query: %s: $nearSphere $geometry must be a Point", path)
			}
			center = pt
			if md, ok := toFloat64(t["$maxDistance"]); ok {
				// GeoJSON form: $maxDistance in meters.
				maxRad = md / geo.EarthRadiusMeters
				hasMax = true
			}
			break
		}
		pt, ok := geo.ParsePoint(t)
		if !ok {
			return center, 0, fmt.Errorf("query: %s: $nearSphere center invalid", path)
		}
		center = pt
	default:
		pt, ok := geo.ParsePoint(operand)
		if !ok {
			return center, 0, fmt.Errorf("query: %s: $nearSphere center invalid", path)
		}
		center = pt
	}
	if !hasMax {
		md, ok := toFloat64(maxDist)
		if !ok {
			return center, 0, fmt.Errorf("query: %s: $nearSphere requires $maxDistance in this engine (index-free matching cannot sort by distance)", path)
		}
		maxRad = md // legacy form: radians
	}
	if maxRad < 0 {
		return center, 0, fmt.Errorf("query: %s: negative $maxDistance", path)
	}
	return center, maxRad, nil
}

func parsePointList(path string, v any, minLen int) ([]geo.Point, error) {
	arr, ok := v.([]any)
	if !ok || len(arr) < minLen {
		return nil, fmt.Errorf("query: %s: expected at least %d points", path, minLen)
	}
	pts := make([]geo.Point, 0, len(arr))
	for i, e := range arr {
		pt, ok := geo.ParsePoint(e)
		if !ok {
			return nil, fmt.Errorf("query: %s: point %d invalid", path, i)
		}
		pts = append(pts, pt)
	}
	return pts, nil
}

func compileRegex(pattern any, options any) (*regexp.Regexp, error) {
	pat, ok := pattern.(string)
	if !ok {
		return nil, fmt.Errorf("$regex expects a string pattern")
	}
	flags := ""
	if options != nil {
		opts, ok := options.(string)
		if !ok {
			return nil, fmt.Errorf("$options expects a string")
		}
		for _, r := range opts {
			switch r {
			case 'i', 'm', 's':
				flags += string(r)
			case 'x':
				// extended mode unsupported by RE2; ignore whitespace flag
			default:
				return nil, fmt.Errorf("unsupported $options flag %q", string(r))
			}
		}
	}
	if flags != "" {
		pat = "(?" + flags + ")" + pat
	}
	re, err := regexp.Compile(pat)
	if err != nil {
		return nil, fmt.Errorf("$regex: %w", err)
	}
	return re, nil
}

func validatePath(path string) error {
	if path == "" {
		return fmt.Errorf("query: empty field path")
	}
	for _, seg := range strings.Split(path, ".") {
		if seg == "" {
			return fmt.Errorf("query: field path %q has an empty segment", path)
		}
	}
	return nil
}

func toInt64(v any) (int64, bool) {
	switch t := v.(type) {
	case int64:
		return t, true
	case float64:
		return int64(t), t == float64(int64(t))
	default:
		return 0, false
	}
}

func toFloat64(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}

func sortedKeys(m map[string]any) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion-order independence: deterministic parse order makes parse
	// errors and predicate order stable.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
