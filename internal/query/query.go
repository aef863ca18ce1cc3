package query

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"

	"invalidb/internal/document"
)

// SortKey is one component of an ORDER BY clause.
type SortKey struct {
	Path string `json:"path"`
	Desc bool   `json:"desc,omitempty"`
}

// Query is a parsed, executable collection query: filter, optional ordering,
// limit/offset window, and projection. The zero Limit means "no limit".
//
// A Query is immutable after Parse/Compile and safe for concurrent use.
type Query struct {
	Collection string
	Filter     Filter
	Sort       []SortKey
	Limit      int
	Offset     int
	Projection []string

	raw  map[string]any // normalized source filter, for hashing & transport
	hash uint64
	// Sort and Projection paths compiled once, parallel to the exported
	// string forms, so Compare and Project never parse a path.
	sortPaths []document.Path
	projPaths []document.Path
}

// Spec is the wire representation of a query, symmetric with MongoDB's find
// command: a filter document plus query modifiers.
type Spec struct {
	Collection string         `json:"collection"`
	Filter     map[string]any `json:"filter,omitempty"`
	Sort       []SortKey      `json:"sort,omitempty"`
	Limit      int            `json:"limit,omitempty"`
	Offset     int            `json:"offset,omitempty"`
	Projection []string       `json:"projection,omitempty"`
}

// Compile validates a Spec and produces an executable Query.
func Compile(spec Spec) (*Query, error) {
	if spec.Collection == "" {
		return nil, fmt.Errorf("query: empty collection name")
	}
	if spec.Limit < 0 {
		return nil, fmt.Errorf("query: negative limit %d", spec.Limit)
	}
	if spec.Offset < 0 {
		return nil, fmt.Errorf("query: negative offset %d", spec.Offset)
	}
	raw := spec.Filter
	if raw == nil {
		raw = map[string]any{}
	}
	raw = normalizeMap(raw)
	f, err := ParseFilter(raw)
	if err != nil {
		return nil, err
	}
	for _, sk := range spec.Sort {
		if err := validatePath(sk.Path); err != nil {
			return nil, fmt.Errorf("query: sort key: %w", err)
		}
	}
	q := &Query{
		Collection: spec.Collection,
		Filter:     f,
		Sort:       append([]SortKey(nil), spec.Sort...),
		Limit:      spec.Limit,
		Offset:     spec.Offset,
		Projection: append([]string(nil), spec.Projection...),
		raw:        raw,
		projPaths:  document.ParsePaths(spec.Projection),
	}
	for _, sk := range spec.Sort {
		q.sortPaths = append(q.sortPaths, document.ParsePath(sk.Path))
	}
	q.hash = document.Hash64(q.canonical())
	return q, nil
}

// MustCompile is Compile for tests and examples with known-good specs.
func MustCompile(spec Spec) *Query {
	q, err := Compile(spec)
	if err != nil {
		panic(err)
	}
	return q
}

// ParseJSON decodes a Spec from JSON and compiles it.
func ParseJSON(data []byte) (*Query, error) {
	var spec Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.UseNumber()
	if err := dec.Decode(&spec); err != nil {
		return nil, fmt.Errorf("query: decode: %w", err)
	}
	return Compile(spec)
}

// Spec returns the wire representation of the query.
func (q *Query) Spec() Spec {
	return Spec{
		Collection: q.Collection,
		Filter:     q.raw,
		Sort:       append([]SortKey(nil), q.Sort...),
		Limit:      q.Limit,
		Offset:     q.Offset,
		Projection: append([]string(nil), q.Projection...),
	}
}

// EncodeJSON renders the query's Spec for transport.
func (q *Query) EncodeJSON() []byte {
	b, err := json.Marshal(q.Spec())
	if err != nil {
		// Spec is built from JSON-decodable values only.
		panic(fmt.Sprintf("query: encode: %v", err))
	}
	return b
}

// canonical returns the value whose canonical encoding identifies the query.
// Distinct subscriptions to the same query hash identically, which is what
// routes them to the same query partition (paper §5.1).
func (q *Query) canonical() map[string]any {
	sort := make([]any, 0, len(q.Sort))
	for _, sk := range q.Sort {
		sort = append(sort, map[string]any{"path": sk.Path, "desc": sk.Desc})
	}
	proj := make([]any, 0, len(q.Projection))
	for _, p := range q.Projection {
		proj = append(proj, p)
	}
	return map[string]any{
		"collection": q.Collection,
		"filter":     q.raw,
		"sort":       sort,
		"limit":      int64(q.Limit),
		"offset":     int64(q.Offset),
		"projection": proj,
	}
}

// Hash returns the stable 64-bit identity hash of the query used for query
// partitioning.
func (q *Query) Hash() uint64 { return q.hash }

// ID returns a printable query identifier derived from the hash.
func (q *Query) ID() string { return fmt.Sprintf("q%016x", q.hash) }

// Match reports whether a document satisfies the query's filter. Window
// clauses (sort/limit/offset) are not considered; they are applied by result
// assembly (pull-based engine) or the sorting stage (real-time engine).
//
//invalidb:hotpath
func (q *Query) Match(d document.Document) bool { return q.Filter.Match(d) }

// Ordered reports whether maintaining this query requires the sorting stage:
// any explicit sort, limit or offset makes result membership positional
// (paper §5.2).
func (q *Query) Ordered() bool {
	return len(q.Sort) > 0 || q.Limit > 0 || q.Offset > 0
}

// Compare orders two documents by the query's sort keys with MongoDB
// comparison semantics, using the primary key as an unambiguous final
// tiebreaker so the real-time and pull-based engines agree on a total order
// (paper §5.2, footnote 4).
//
//invalidb:hotpath
func (q *Query) Compare(a, b document.Document) int {
	for i := range q.sortPaths {
		c := document.Compare(q.sortPaths[i].Get(a), q.sortPaths[i].Get(b))
		if q.Sort[i].Desc {
			c = -c
		}
		if c != 0 {
			return c
		}
	}
	//invalidb:allow hotpathalloc only non-string primary keys are formatted; string keys, which every stored record has, come back as they are
	ida, idb := primaryKey(a), primaryKey(b)
	switch {
	case ida < idb:
		return -1
	case ida > idb:
		return 1
	default:
		return 0
	}
}

func primaryKey(d document.Document) string {
	id, _ := d.ID()
	return id
}

// Project applies the query's projection to a document (identity when the
// query has no projection).
func (q *Query) Project(d document.Document) document.Document {
	if len(q.Projection) == 0 {
		return d
	}
	return document.Project(d, q.projPaths, true)
}

// Rewritten returns the bootstrap form of a sorted query as registered with
// InvaliDB (paper §5.2): the offset clause is removed and the limit is
// extended by the original offset plus the given slack, so the initial
// result contains the offset items, the visible result, and slack items
// beyond the limit. Unsorted queries are returned unchanged.
func (q *Query) Rewritten(slack int) *Query {
	if !q.Ordered() || (q.Offset == 0 && q.Limit == 0) {
		return q
	}
	limit := 0
	if q.Limit > 0 {
		limit = q.Offset + q.Limit + slack
	}
	r := *q
	r.Offset = 0
	r.Limit = limit
	// The rewritten query keeps the original's identity: it is the same
	// subscription, fetched with wider bounds.
	return &r
}

// EqualityPaths extracts the top-level exact-equality conditions of the
// filter ({path: scalar} or {path: {$eq: scalar}}). Storage engines use these
// as index hints: any document matching the query must carry exactly these
// values at these paths.
func (q *Query) EqualityPaths() map[string]any {
	out := map[string]any{}
	for path, v := range q.raw {
		if strings.HasPrefix(path, "$") {
			continue
		}
		switch t := v.(type) {
		case map[string]any:
			if eq, ok := t["$eq"]; ok && len(t) == 1 && !isContainer(eq) {
				out[path] = eq
			}
		default:
			if !isContainer(v) {
				out[path] = v
			}
		}
	}
	return out
}

func isContainer(v any) bool {
	switch v.(type) {
	case map[string]any, []any:
		return true
	default:
		return false
	}
}

// Interval is a numeric constraint a query imposes on one field: every
// matching document's value at Path lies within [Lo, Hi] (bounds optional,
// inclusive per flag). Matching layers use it as a multi-query index key: a
// written value outside the interval can only affect the query if the
// record was previously in its result.
type Interval struct {
	Path   string
	Lo, Hi float64
	LoSet  bool
	HiSet  bool
	LoInc  bool
	HiInc  bool
}

// Contains reports whether a numeric value satisfies the interval.
func (iv Interval) Contains(v float64) bool {
	if iv.LoSet {
		if iv.LoInc {
			if v < iv.Lo {
				return false
			}
		} else if v <= iv.Lo {
			return false
		}
	}
	if iv.HiSet {
		if iv.HiInc {
			if v > iv.Hi {
				return false
			}
		} else if v >= iv.Hi {
			return false
		}
	}
	return true
}

// IndexInterval extracts a numeric interval constraint from the query's
// top-level filter, if one exists: a {path: {$gte/$gt/$lte/$lt/$eq: number}}
// condition (or a bare numeric equality). The constraint is necessary, not
// sufficient — candidates still run the full filter. The second return is
// false when no such constraint can be derived (the query is then
// unindexable and must be evaluated against every write).
func (q *Query) IndexInterval() (Interval, bool) {
	for path, v := range q.raw {
		if strings.HasPrefix(path, "$") {
			continue
		}
		switch t := v.(type) {
		case map[string]any:
			iv := Interval{Path: path}
			usable := false
			for op, operand := range t {
				n, isNum := numericOperand(operand)
				if !isNum {
					continue
				}
				switch op {
				case "$eq":
					iv.Lo, iv.Hi, iv.LoSet, iv.HiSet, iv.LoInc, iv.HiInc = n, n, true, true, true, true
					usable = true
				case "$gte":
					if !iv.LoSet || n > iv.Lo {
						iv.Lo, iv.LoSet, iv.LoInc = n, true, true
					}
					usable = true
				case "$gt":
					if !iv.LoSet || n >= iv.Lo {
						iv.Lo, iv.LoSet, iv.LoInc = n, true, false
					}
					usable = true
				case "$lte":
					if !iv.HiSet || n < iv.Hi {
						iv.Hi, iv.HiSet, iv.HiInc = n, true, true
					}
					usable = true
				case "$lt":
					if !iv.HiSet || n <= iv.Hi {
						iv.Hi, iv.HiSet, iv.HiInc = n, true, false
					}
					usable = true
				}
			}
			if usable {
				return iv, true
			}
		default:
			if n, ok := numericOperand(v); ok {
				return Interval{Path: path, Lo: n, Hi: n, LoSet: true, HiSet: true, LoInc: true, HiInc: true}, true
			}
		}
	}
	return Interval{}, false
}

func numericOperand(v any) (float64, bool) {
	switch t := v.(type) {
	case int64:
		return float64(t), true
	case float64:
		return t, true
	default:
		return 0, false
	}
}

// String renders a compact, SQL-flavoured description for logs.
func (q *Query) String() string {
	s := fmt.Sprintf("FROM %s WHERE %s", q.Collection, document.MarshalCanonical(q.raw))
	for i, sk := range q.Sort {
		if i == 0 {
			s += " ORDER BY "
		} else {
			s += ", "
		}
		s += sk.Path
		if sk.Desc {
			s += " DESC"
		}
	}
	if q.Offset > 0 {
		s += fmt.Sprintf(" OFFSET %d", q.Offset)
	}
	if q.Limit > 0 {
		s += fmt.Sprintf(" LIMIT %d", q.Limit)
	}
	return s
}
