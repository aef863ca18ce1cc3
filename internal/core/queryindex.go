package core

import (
	"sort"

	"invalidb/internal/document"
	"invalidb/internal/geo"
	"invalidb/internal/query"
)

// queryIndex is the matching node's multi-query optimization: instead of
// evaluating every after-image against every registered query, each query is
// registered under the most selective *necessary* condition its filter
// exposes (query.IndexableConstraints), and a write only probes the queries
// whose condition the written document could satisfy. Four index families
// cover the common predicate shapes, echoing the per-predicate index lists
// of distributed spatio-textual pub/sub systems (Chen et al.):
//
//   - interval trees for numeric range constraints (the paper's evaluation
//     workload, `random >= i AND random < j`),
//   - a hash index for scalar equality ({field: value}, $in),
//   - a grid-cell index for $geoWithin/$nearSphere shapes (internal/geo
//     cells at a fixed resolution → query postings),
//   - an inverted token index for $text term queries.
//
// The families are grouped into per-(tenant, collection) buckets so a write
// probes only its own collection's indexes; the bucket key is a slice of the
// write's interned composite key, so the probe performs no per-write key
// construction. On top of the bucket probe, every write also visits
//
//   - the queries currently tracking the written key (their matching status
//     can only *end*, which no necessary condition can rule out), and
//   - the bucket's residual queries with no extractable constraint.
//
// Every candidate therefore belongs to the write's own (tenant, collection):
// the matching cell evaluates candidates without re-checking either.
//
// Correctness: an indexed constraint is necessary for matching, so any query
// not in the candidate set neither matches the new image nor tracked the old
// one — its result cannot change. See DESIGN.md §11.
type queryIndex struct {
	// buckets: tenant\x00collection -> that collection's index families.
	buckets map[string]*collectionIndex
	// byQuery remembers where each indexed query was registered.
	byQuery map[uint64]indexedAt
	// tokBuf is the reusable lowercase-token buffer of the text probe.
	tokBuf []byte
	// The probe visitors live here so handing one to a path walk allocates
	// nothing; a probe is single-threaded, like the cell that owns the index.
	rng  rangeProbe
	eqp  eqProbe
	geop geoProbe
}

// collectionIndex holds one (tenant, collection)'s index families. Each
// per-path family carries its field path compiled once, when the first
// constraint on that path is registered, so probes walk documents through
// document.Path — the one owner of the array fan-out rule. size counts the
// queries registered across all families, so empty buckets can be dropped.
type collectionIndex struct {
	// trees: field path -> interval tree over numeric range constraints.
	trees map[string]*intervalTree
	// eq: field path -> scalar value -> queries requiring that value.
	eq map[string]*eqPostings
	// geo: field path -> grid cell -> queries whose shape's bound covers it.
	geo map[string]*geoPostings
	// text: token -> queries requiring (at least) that token.
	text map[string]map[uint64]*matchQuery
	// unindexed queries of this bucket are candidates of every write to it.
	unindexed map[uint64]*matchQuery
	// trackers: record key -> queries whose result currently holds the record.
	trackers map[string]map[uint64]*matchQuery
	size     int
}

type eqPostings struct {
	path  document.Path
	byVal map[eqValue]map[uint64]*matchQuery
}

type geoPostings struct {
	path   document.Path
	byCell map[uint64]map[uint64]*matchQuery
}

// indexedAt records a query's registration for O(1) removal.
type indexedAt struct {
	bucket string
	// residual marks a query with no indexable constraint: it sits in the
	// bucket's unindexed set and c is the zero Constraint.
	residual bool
	c        query.Constraint
	eqVals   []eqValue // ConstraintEquality: the hash keys registered
	cells    []uint64  // ConstraintGeo: the cells registered
}

// eqValue is the equality index's hash key: a scalar normalized so that
// values document.Compare would equate collide (int64 3 and float64 3.0 both
// key as num 3). Bools key separately — they are their own type bracket.
type eqValue struct {
	kind uint8 // eqKindStr | eqKindNum | eqKindBool
	str  string
	num  float64
}

const (
	eqKindStr uint8 = iota
	eqKindNum
	eqKindBool
)

// geoCellDeg is the grid resolution (degrees per cell). At 0.1° a cell is
// ~11km at the equator — fine enough that city-scale query shapes cover a
// handful of cells, coarse enough that country-scale shapes stay under the
// cell cap.
const geoCellDeg = 0.1

// maxGeoCells caps the postings one geo query may occupy. Shapes covering
// more cells fall through to the query's next constraint (or unindexed):
// a near-worldwide query gains nothing from cell postings.
const maxGeoCells = 4096

func newQueryIndex() *queryIndex {
	return &queryIndex{
		buckets: map[string]*collectionIndex{},
		byQuery: map[uint64]indexedAt{},
		tokBuf:  make([]byte, 0, 64),
	}
}

func bucketKey(tenant, collection string) string {
	return tenant + "\x00" + collection
}

// bucketOfKey slices the bucket key off an interned composite record key
// (tenant\x00collection\x00key): no per-write key construction.
//
//invalidb:hotpath
func bucketOfKey(ck, key string) string {
	return ck[:len(ck)-len(key)-1]
}

// add registers a query under the most selective of its indexable
// constraints; queries with none are probed on every write.
func (qi *queryIndex) add(mq *matchQuery) {
	bkey := bucketKey(mq.tenant, mq.q.Collection)
	for _, c := range mq.q.IndexableConstraints() {
		if qi.tryIndex(bkey, c, mq) {
			return
		}
	}
	b := qi.bucket(bkey)
	b.unindexed[mq.hash] = mq
	b.size++
	qi.byQuery[mq.hash] = indexedAt{bucket: bkey, residual: true}
}

// tryIndex attempts to register mq under one constraint. It returns false
// when the constraint cannot be served (currently only a geo bound covering
// more than maxGeoCells cells), letting add fall through to the next one.
func (qi *queryIndex) tryIndex(bkey string, c query.Constraint, mq *matchQuery) bool {
	at := indexedAt{bucket: bkey, c: c}
	switch c.Kind {
	case query.ConstraintGeo:
		cells, ok := geo.CoverCells(c.Bound, geoCellDeg, maxGeoCells, nil)
		if !ok {
			return false
		}
		b := qi.bucket(bkey)
		gp := b.geo[c.Path]
		if gp == nil {
			gp = &geoPostings{path: document.ParsePath(c.Path), byCell: map[uint64]map[uint64]*matchQuery{}}
			b.geo[c.Path] = gp
		}
		for _, cell := range cells {
			set := gp.byCell[cell]
			if set == nil {
				set = map[uint64]*matchQuery{}
				gp.byCell[cell] = set
			}
			set[mq.hash] = mq
		}
		at.cells = cells
	case query.ConstraintEquality:
		vals := make([]eqValue, 0, len(c.Values))
		for _, v := range c.Values {
			ev, ok := constraintEqValue(v)
			if !ok {
				return false // extraction only emits convertible scalars
			}
			vals = append(vals, ev)
		}
		b := qi.bucket(bkey)
		ep := b.eq[c.Path]
		if ep == nil {
			ep = &eqPostings{path: document.ParsePath(c.Path), byVal: map[eqValue]map[uint64]*matchQuery{}}
			b.eq[c.Path] = ep
		}
		for _, ev := range vals {
			set := ep.byVal[ev]
			if set == nil {
				set = map[uint64]*matchQuery{}
				ep.byVal[ev] = set
			}
			set[mq.hash] = mq
		}
		at.eqVals = vals
	case query.ConstraintText:
		b := qi.bucket(bkey)
		for _, tok := range c.Tokens {
			set := b.text[tok]
			if set == nil {
				set = map[uint64]*matchQuery{}
				b.text[tok] = set
			}
			set[mq.hash] = mq
		}
	case query.ConstraintInterval:
		b := qi.bucket(bkey)
		tree := b.trees[c.Path]
		if tree == nil {
			tree = &intervalTree{path: document.ParsePath(c.Path)}
			b.trees[c.Path] = tree
		}
		tree.insert(c.Interval, mq)
	default:
		return false
	}
	qi.bucket(bkey).size++
	qi.byQuery[mq.hash] = at
	return true
}

func (qi *queryIndex) bucket(bkey string) *collectionIndex {
	b := qi.buckets[bkey]
	if b == nil {
		b = &collectionIndex{
			trees:     map[string]*intervalTree{},
			eq:        map[string]*eqPostings{},
			geo:       map[string]*geoPostings{},
			text:      map[string]map[uint64]*matchQuery{},
			unindexed: map[uint64]*matchQuery{},
			trackers:  map[string]map[uint64]*matchQuery{},
		}
		qi.buckets[bkey] = b
	}
	return b
}

// constraintEqValue converts an extraction-normalized scalar (string, bool,
// float64) to its hash key.
func constraintEqValue(v any) (eqValue, bool) {
	switch t := v.(type) {
	case string:
		return eqValue{kind: eqKindStr, str: t}, true
	case bool:
		ev := eqValue{kind: eqKindBool}
		if t {
			ev.num = 1
		}
		return ev, true
	case float64:
		return eqValue{kind: eqKindNum, num: t}, true
	case int64: // defensive: extraction normalizes, but accept raw int64 too
		return eqValue{kind: eqKindNum, num: float64(t)}, true
	default:
		return eqValue{}, false
	}
}

// docEqValue converts a document leaf value to its equality hash key.
//
//invalidb:hotpath
func docEqValue(v any) (eqValue, bool) {
	switch t := v.(type) {
	case string:
		return eqValue{kind: eqKindStr, str: t}, true
	case int64:
		return eqValue{kind: eqKindNum, num: float64(t)}, true
	case float64:
		return eqValue{kind: eqKindNum, num: t}, true
	case bool:
		ev := eqValue{kind: eqKindBool}
		if t {
			ev.num = 1
		}
		return ev, true
	default:
		return eqValue{}, false
	}
}

// remove deregisters a query and its tracker entries. The byQuery record
// makes this O(registration size); the query's own tracked-key set makes the
// tracker cleanup O(keys tracked by this query).
func (qi *queryIndex) remove(mq *matchQuery) {
	if at, ok := qi.byQuery[mq.hash]; ok {
		delete(qi.byQuery, mq.hash)
		if b := qi.buckets[at.bucket]; b != nil {
			for key := range mq.tracked {
				b.untrack(key, mq)
			}
			switch {
			case at.residual:
				delete(b.unindexed, mq.hash)
			case at.c.Kind == query.ConstraintGeo:
				if gp := b.geo[at.c.Path]; gp != nil {
					for _, cell := range at.cells {
						if set := gp.byCell[cell]; set != nil {
							delete(set, mq.hash)
							if len(set) == 0 {
								delete(gp.byCell, cell)
							}
						}
					}
					if len(gp.byCell) == 0 {
						delete(b.geo, at.c.Path)
					}
				}
			case at.c.Kind == query.ConstraintEquality:
				if ep := b.eq[at.c.Path]; ep != nil {
					for _, ev := range at.eqVals {
						if set := ep.byVal[ev]; set != nil {
							delete(set, mq.hash)
							if len(set) == 0 {
								delete(ep.byVal, ev)
							}
						}
					}
					if len(ep.byVal) == 0 {
						delete(b.eq, at.c.Path)
					}
				}
			case at.c.Kind == query.ConstraintText:
				for _, tok := range at.c.Tokens {
					if set := b.text[tok]; set != nil {
						delete(set, mq.hash)
						if len(set) == 0 {
							delete(b.text, tok)
						}
					}
				}
			case at.c.Kind == query.ConstraintInterval:
				if tree := b.trees[at.c.Path]; tree != nil {
					tree.remove(mq.hash)
					if tree.size == 0 {
						delete(b.trees, at.c.Path)
					}
				}
			}
			b.size--
			if b.size == 0 {
				delete(qi.buckets, at.bucket)
			}
		}
	}
}

// registered returns the number of queries held in bucket indexes (tests).
func (qi *queryIndex) registered() int {
	n := 0
	for _, b := range qi.buckets {
		n += b.size - len(b.unindexed)
	}
	return n
}

// track records that a query's result partition now contains the record.
// The tracker sets live in the query's own bucket, keyed by record key.
func (qi *queryIndex) track(key string, mq *matchQuery) {
	b := qi.buckets[qi.byQuery[mq.hash].bucket]
	if b == nil {
		return // not registered: nothing probes on its behalf
	}
	set := b.trackers[key]
	if set == nil {
		set = map[uint64]*matchQuery{}
		b.trackers[key] = set
	}
	set[mq.hash] = mq
}

// untrack removes a tracker entry.
func (qi *queryIndex) untrack(key string, mq *matchQuery) {
	if b := qi.buckets[qi.byQuery[mq.hash].bucket]; b != nil {
		b.untrack(key, mq)
	}
}

func (b *collectionIndex) untrack(key string, mq *matchQuery) {
	if set := b.trackers[key]; set != nil {
		delete(set, mq.hash)
		if len(set) == 0 {
			delete(b.trackers, key)
		}
	}
}

// candidates collects every query whose result could change with this
// after-image into a freshly allocated map (convenience wrapper used by
// tests; the hot path passes a reusable scratch map to candidatesInto).
func (qi *queryIndex) candidates(we *WriteEvent, ck string) map[uint64]*matchQuery {
	return qi.candidatesInto(we, ck, map[uint64]*matchQuery{})
}

// candidatesInto fills out with every candidate query, keyed by query hash,
// and returns it. The caller owns (and clears) the scratch map, so the
// per-write probe allocates nothing once the map has grown to steady state.
//
//invalidb:hotpath
func (qi *queryIndex) candidatesInto(we *WriteEvent, ck string, out map[uint64]*matchQuery) map[uint64]*matchQuery {
	img := we.Image
	if len(ck) < len(img.Key)+2 {
		return out
	}
	// ck is the interned tenant\x00collection\x00key composite, so the
	// tenant\x00collection bucket key is a slice of it — no per-write key
	// construction, and no scan over other collections' indexes.
	b := qi.buckets[bucketOfKey(ck, img.Key)]
	if b == nil {
		return out
	}
	for h, mq := range b.trackers[img.Key] {
		out[h] = mq
	}
	for h, mq := range b.unindexed {
		out[h] = mq
	}
	if img.Doc == nil {
		return out
	}
	for _, tree := range b.trees {
		// Numeric constraints are probed with the *extent* of the path's
		// values, not per value: with an array field, {$gte: a, $lt: b} can
		// be satisfied by two different elements, so the sound necessary
		// condition is that the query interval overlaps [min, max] of the
		// reachable values (exactly a point stab when the field is scalar).
		qi.rng.any = false
		tree.path.WalkLeaves(img.Doc, &qi.rng)
		if qi.rng.any {
			tree.stabRange(qi.rng.min, qi.rng.max, out)
		}
	}
	for _, ep := range b.eq {
		qi.eqp.byVal, qi.eqp.out = ep.byVal, out
		ep.path.WalkLeaves(img.Doc, &qi.eqp)
	}
	for _, gp := range b.geo {
		qi.geop.byCell, qi.geop.out = gp.byCell, out
		gp.path.Walk(img.Doc, &qi.geop)
	}
	if len(b.text) > 0 {
		qi.probeTextValue(map[string]any(img.Doc), b.text, out)
	}
	return out
}

// The probes below are document.Path visitors: the path walk owns the
// traversal (numeric segments positional, other segments fanning out over
// array elements, leaf arrays offering their elements), the visitor only
// looks at the values it is handed. None ever stops a walk.

// rangeProbe widens [min, max] with every numeric value a path reaches, so
// the caller can run one interval-overlap query against the whole extent.
type rangeProbe struct {
	min, max float64
	any      bool
}

//invalidb:hotpath
func (p *rangeProbe) Visit(v any) bool {
	var f float64
	switch t := v.(type) {
	case int64:
		f = float64(t)
	case float64:
		f = t
	default:
		return false
	}
	if !p.any {
		p.min, p.max, p.any = f, f, true
		return false
	}
	if f < p.min {
		p.min = f
	}
	if f > p.max {
		p.max = f
	}
	return false
}

// eqProbe merges the postings of every scalar a path reaches.
type eqProbe struct {
	byVal map[eqValue]map[uint64]*matchQuery
	out   map[uint64]*matchQuery
}

//invalidb:hotpath
func (p *eqProbe) Visit(v any) bool {
	if ev, ok := docEqValue(v); ok {
		for h, mq := range p.byVal[ev] {
			p.out[h] = mq
		}
	}
	return false
}

// geoProbe merges the cell postings of every point a path reaches. A reached
// value is a point, or an array of points ($geoWithin's array form);
// ParsePoint itself understands the [lng, lat] array form, so the value is
// tried first and only then its elements.
type geoProbe struct {
	byCell map[uint64]map[uint64]*matchQuery
	out    map[uint64]*matchQuery
}

//invalidb:hotpath
func (p *geoProbe) Visit(v any) bool {
	if pt, ok := geo.ParsePoint(v); ok {
		p.cell(pt)
		return false
	}
	if arr, ok := v.([]any); ok {
		for _, e := range arr {
			if pt, ok := geo.ParsePoint(e); ok {
				p.cell(pt)
			}
		}
	}
	return false
}

//invalidb:hotpath
func (p *geoProbe) cell(pt geo.Point) {
	for h, mq := range p.byCell[geo.CellID(pt, geoCellDeg)] {
		p.out[h] = mq
	}
}

// probeTextValue walks every value of the document (the $text operator spans
// all string fields) and probes the token postings for each word.
//
//invalidb:hotpath
func (qi *queryIndex) probeTextValue(v any, idx map[string]map[uint64]*matchQuery, out map[uint64]*matchQuery) {
	switch t := v.(type) {
	case string:
		qi.probeTokens(t, idx, out)
	case map[string]any:
		for _, e := range t {
			qi.probeTextValue(e, idx, out)
		}
	case document.Document:
		for _, e := range t {
			qi.probeTextValue(e, idx, out)
		}
	case []any:
		for _, e := range t {
			qi.probeTextValue(e, idx, out)
		}
	}
}

// probeTokens scans a string's maximal ASCII-alphanumeric runs — the word
// shape containsWord tests against — lowercased into the index's reusable
// buffer, and merges each token's postings.
//
//invalidb:hotpath
func (qi *queryIndex) probeTokens(s string, idx map[string]map[uint64]*matchQuery, out map[uint64]*matchQuery) {
	buf := qi.tokBuf[:0]
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= '0' && c <= '9':
			buf = append(buf, c)
		case c >= 'A' && c <= 'Z':
			buf = append(buf, c+('a'-'A'))
		default:
			if len(buf) > 0 {
				for h, mq := range idx[string(buf)] { // no alloc: compiler-optimized lookup
					out[h] = mq
				}
				buf = buf[:0]
			}
		}
	}
	if len(buf) > 0 {
		for h, mq := range idx[string(buf)] { // no alloc: compiler-optimized lookup
			out[h] = mq
		}
	}
	qi.tokBuf = buf[:0] // keep grown capacity for the next probe
}

// intervalTree is a centered interval tree over query intervals. It is
// rebuilt lazily: inserts and removes append to a pending list and flip a
// dirty flag; the first stab after a change rebuilds. Query registration is
// rare relative to writes, so rebuilds amortize to nothing during
// measurement phases.
type intervalTree struct {
	path  document.Path
	items map[uint64]treeItem
	root  *inode
	dirty bool
	size  int
}

type treeItem struct {
	iv query.Interval
	mq *matchQuery
}

type inode struct {
	center      float64
	left, right *inode
	// overlapping intervals containing center, sorted by lo asc / hi desc.
	byLo []treeItem
	byHi []treeItem
}

func (t *intervalTree) insert(iv query.Interval, mq *matchQuery) {
	if t.items == nil {
		t.items = map[uint64]treeItem{}
	}
	t.items[mq.hash] = treeItem{iv: iv, mq: mq}
	t.size = len(t.items)
	t.dirty = true
}

func (t *intervalTree) remove(hash uint64) {
	delete(t.items, hash)
	t.size = len(t.items)
	t.dirty = true
}

const unbounded = 1e308

func loValue(iv query.Interval) float64 {
	if !iv.LoSet {
		return -unbounded
	}
	return iv.Lo
}

func hiValue(iv query.Interval) float64 {
	if !iv.HiSet {
		return unbounded
	}
	return iv.Hi
}

func (t *intervalTree) rebuild() {
	items := make([]treeItem, 0, len(t.items))
	for _, it := range t.items {
		items = append(items, it)
	}
	t.root = buildINode(items)
	t.dirty = false
}

func buildINode(items []treeItem) *inode {
	if len(items) == 0 {
		return nil
	}
	// Center on the median of interval midpoints (clamped endpoints).
	mids := make([]float64, len(items))
	for i, it := range items {
		mids[i] = (clamp(loValue(it.iv)) + clamp(hiValue(it.iv))) / 2
	}
	sort.Float64s(mids)
	center := mids[len(mids)/2]
	n := &inode{center: center}
	var left, right []treeItem
	for _, it := range items {
		switch {
		case hiValue(it.iv) < center:
			left = append(left, it)
		case loValue(it.iv) > center:
			right = append(right, it)
		default:
			n.byLo = append(n.byLo, it)
		}
	}
	// Degenerate guard before the sorts: when nothing splits off (identical
	// intervals, shared midpoints), keep everything in this node so recursion
	// terminates — and so the byLo/byHi sorts below run exactly once.
	if len(left) == len(items) || len(right) == len(items) {
		n.byLo = items
		left, right = nil, nil
	}
	n.byHi = append([]treeItem(nil), n.byLo...)
	sort.Slice(n.byLo, func(i, j int) bool { return loValue(n.byLo[i].iv) < loValue(n.byLo[j].iv) })
	sort.Slice(n.byHi, func(i, j int) bool { return hiValue(n.byHi[i].iv) > hiValue(n.byHi[j].iv) })
	n.left = buildINode(left)
	n.right = buildINode(right)
	return n
}

func clamp(v float64) float64 {
	if v > unbounded {
		return unbounded
	}
	if v < -unbounded {
		return -unbounded
	}
	return v
}

// stab adds every query whose interval contains v to out.
//
//invalidb:hotpath
func (t *intervalTree) stab(v float64, out map[uint64]*matchQuery) {
	t.stabRange(v, v, out)
}

// rangeOverlaps reports whether the interval admits some value in [mn, mx]:
// mx satisfies the lower bound and mn the upper one. For mn == mx this is
// exactly iv.Contains.
//
//invalidb:hotpath
func rangeOverlaps(iv query.Interval, mn, mx float64) bool {
	if iv.LoSet {
		if iv.LoInc {
			if mx < iv.Lo {
				return false
			}
		} else if mx <= iv.Lo {
			return false
		}
	}
	if iv.HiSet {
		if iv.HiInc {
			if mn > iv.Hi {
				return false
			}
		} else if mn >= iv.Hi {
			return false
		}
	}
	return true
}

// stabRange adds every query whose interval overlaps [mn, mx] to out.
// Navigation and the sorted-scan cutoffs use clamped values: unbounded
// endpoints are stored as ±1e308, so an unclamped |v| > 1e308 (the largest
// finite float64 is ~1.8e308) would break out of the scan before reaching
// the unbounded intervals that contain it. The overlap test itself uses the
// original values.
//
//invalidb:hotpath
func (t *intervalTree) stabRange(mn, mx float64, out map[uint64]*matchQuery) {
	if t.dirty {
		//invalidb:allow hotpathalloc lazy rebuild after interval mutations, amortized across stabs
		t.rebuild()
	}
	stabRangeNode(t.root, mn, mx, clamp(mn), clamp(mx), out)
}

//invalidb:hotpath
func stabRangeNode(n *inode, mn, mx, cmn, cmx float64, out map[uint64]*matchQuery) {
	for n != nil {
		switch {
		case cmx < n.center:
			// The probe range lies left of center: only intervals starting
			// at or before mx can overlap, and the right subtree (lo >
			// center) cannot.
			for _, it := range n.byLo {
				if loValue(it.iv) > cmx {
					break
				}
				if rangeOverlaps(it.iv, mn, mx) {
					out[it.mq.hash] = it.mq
				}
			}
			n = n.left
		case cmn > n.center:
			// Mirror image on the right.
			for _, it := range n.byHi {
				if hiValue(it.iv) < cmn {
					break
				}
				if rangeOverlaps(it.iv, mn, mx) {
					out[it.mq.hash] = it.mq
				}
			}
			n = n.right
		default:
			// center ∈ [mn, mx]: every interval stored here straddles
			// center, so scan them all; both subtrees may overlap too.
			for _, it := range n.byLo {
				if rangeOverlaps(it.iv, mn, mx) {
					out[it.mq.hash] = it.mq
				}
			}
			stabRangeNode(n.left, mn, mx, cmn, cmx, out)
			n = n.right
		}
	}
}
