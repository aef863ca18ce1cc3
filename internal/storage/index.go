package storage

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

// maxAutoIndexes bounds the indexes a collection builds on its own (scan):
// every index costs each write one walk of its path over the old and the new
// document, so the cap is the write amplification automatic indexing may
// add. Beyond it, a query pinning an unindexed path is a full scan.
// Indexes asked for through EnsureIndex do not count against it.
const maxAutoIndexes = 4

// hashIndex is an equality index: index key -> set of primary keys, kept in
// one part per shard. A shard's part is guarded by that shard's lock, so a
// write re-files its key under the same hold that stores its record, and a
// read resolves a bucket and its records under one read lock per shard.
// Multi-valued paths (arrays) index every element, like MongoDB's multikey
// indexes.
type hashIndex struct {
	path  document.Path
	auto  bool // built by scan, counts against maxAutoIndexes
	parts []indexPart
}

// indexPart is one shard's share of an index: key -> set of primary keys.
type indexPart map[indexKey]map[string]struct{}

func (p indexPart) add(k indexKey, key string) {
	set := p[k]
	if set == nil {
		set = map[string]struct{}{}
		p[k] = set
	}
	set[key] = struct{}{}
}

func (p indexPart) remove(k indexKey, key string) {
	if set := p[k]; set != nil {
		delete(set, key)
		if len(set) == 0 {
			delete(p, k)
		}
	}
}

// indexKey is what an index files a value under. Two values the query
// engine's $eq considers equal get the same key: numbers are keyed by their
// float64 value, so int64 and float64 forms of a number share a bucket at any
// magnitude (the engine compares mixed pairs as float64, and equal int64 pairs
// convert to equal float64s), -0 shares 0's bucket and every NaN shares one.
// Equal float64s of distinct int64s land in one bucket, which only widens the
// candidate set: the full filter still runs on every candidate.
//
// Only number, string and boolean values are keyed. Null is not: {g: null}
// also matches documents that lack g, which no bucket holds, so EqualityPaths
// offers no null hint. Objects and arrays never equal a scalar operand.
type indexKey struct {
	kind uint8
	num  float64
	str  string
}

const (
	keyNumber uint8 = iota + 1
	keyNaN
	keyString
	keyBool
)

// keyOf returns the index key of a scalar value, or false for a value no
// index holds (null, Missing, objects, arrays).
func keyOf(v any) (indexKey, bool) {
	switch t := v.(type) {
	case int64:
		return indexKey{kind: keyNumber, num: float64(t)}, true
	case float64:
		switch {
		case math.IsNaN(t):
			return indexKey{kind: keyNaN}, true
		case t == 0:
			return indexKey{kind: keyNumber}, true // -0 and 0
		}
		return indexKey{kind: keyNumber, num: t}, true
	case string:
		return indexKey{kind: keyString, str: t}, true
	case bool:
		return indexKey{kind: keyBool, str: strconv.FormatBool(t)}, true
	}
	return indexKey{}, false
}

// keyCollector gathers the index keys of the values a path reaches under the
// scalar operators' leaf rule (the walk $eq itself makes). Duplicates are
// kept: filing a key twice, or removing it twice, is harmless.
type keyCollector struct{ keys []indexKey }

func (c *keyCollector) Visit(v any) bool {
	if k, ok := keyOf(v); ok {
		c.keys = append(c.keys, k)
	}
	return false
}

// keysFor appends the keys of d's values at the indexed path to buf. A path
// that crosses no array to a scalar, the common case, costs no allocation.
func (idx *hashIndex) keysFor(d document.Document, buf []indexKey) []indexKey {
	if d == nil {
		return buf
	}
	if v, ok := idx.path.Single(d); ok {
		if _, isArr := v.([]any); !isArr {
			if k, ok := keyOf(v); ok {
				buf = append(buf, k)
			}
			return buf
		}
	}
	c := keyCollector{}
	idx.path.WalkLeaves(d, &c)
	return append(buf, c.keys...)
}

// unchanged reports whether old and d hold the same index keys at the path.
// A write that leaves the path alone, the common case, answers it without
// allocating: values $eq considers equal have equal keys.
func (idx *hashIndex) unchanged(old, d document.Document) bool {
	if old == nil || d == nil {
		return false
	}
	ov, ok := idx.path.Single(old)
	nv, ok2 := idx.path.Single(d)
	if ok && ok2 {
		return document.Equal(ov, nv)
	}
	return slices.Equal(idx.keysFor(old, nil), idx.keysFor(d, nil))
}

// indexMove re-files key in every index from the values old holds to those d
// holds; old is nil for an insert, d nil for a delete. The caller holds s's
// write lock, which guards s's part of every index, so a concurrent indexed
// read sees the key in its old bucket or its new one, never in neither. An
// index whose path the write left alone is not touched.
func (c *Collection) indexMove(s *shard, key string, old, d document.Document) {
	var buf [1]indexKey
	for _, idx := range c.indexList() {
		if idx.unchanged(old, d) {
			continue
		}
		part := idx.parts[s.n]
		for _, k := range idx.keysFor(old, buf[:0]) {
			part.remove(k, key)
		}
		for _, k := range idx.keysFor(d, buf[:0]) {
			part.add(k, key)
		}
	}
}

// EnsureIndex creates an equality (hash) index on a dotted path and
// backfills it from existing documents. Creating an index that already
// exists is a no-op. Collections also build indexes on their own, for the
// paths queries pin (see scan).
func (c *Collection) EnsureIndex(path string) error {
	if path == "" {
		return fmt.Errorf("storage: empty index path")
	}
	c.ensureIndex(path, false)
	return nil
}

// ensureIndex builds and publishes an index on path unless one exists or,
// for an automatic index, the collection is at maxAutoIndexes. The lock
// order is shard -> idxMu everywhere: the backfill freezes all shards first,
// so no write can slip between the backfill and the index's publication,
// and only then takes idxMu, which serializes index builds. Writers never
// take idxMu; they read the published index list under their shard lock.
func (c *Collection) ensureIndex(path string, auto bool) {
	for _, s := range c.shards {
		s.mu.RLock()
	}
	defer func() {
		for _, s := range c.shards {
			s.mu.RUnlock()
		}
	}()
	c.idxMu.Lock()
	defer c.idxMu.Unlock()
	cur := c.indexList()
	for _, idx := range cur {
		if idx.path.String() == path {
			return
		}
	}
	if auto && autoCount(cur) >= maxAutoIndexes {
		return
	}
	idx := &hashIndex{path: document.ParsePath(path), auto: auto, parts: make([]indexPart, len(c.shards))}
	var buf []indexKey
	for i, s := range c.shards {
		part := indexPart{}
		for key, rec := range s.docs {
			buf = idx.keysFor(rec.doc, buf[:0])
			for _, k := range buf {
				part.add(k, key)
			}
		}
		idx.parts[i] = part
	}
	next := append(append(make([]*hashIndex, 0, len(cur)+1), cur...), idx)
	c.indexes.Store(&next)
}

// Indexes lists the indexed paths in sorted order.
func (c *Collection) Indexes() []string {
	out := []string{}
	for _, idx := range c.indexList() {
		out = append(out, idx.path.String())
	}
	sort.Strings(out)
	return out
}

// indexList returns the published indexes in build order.
func (c *Collection) indexList() []*hashIndex {
	if p := c.indexes.Load(); p != nil {
		return *p
	}
	return nil
}

func autoCount(idxs []*hashIndex) int {
	n := 0
	for _, idx := range idxs {
		if idx.auto {
			n++
		}
	}
	return n
}

// indexFor picks the first index, in build order, on a path the query pins
// to a keyable value, and that value's key.
func (c *Collection) indexFor(pins map[string]any) (*hashIndex, indexKey, bool) {
	for _, idx := range c.indexList() {
		if v, ok := pins[idx.path.String()]; ok {
			if k, ok := keyOf(v); ok {
				return idx, k, true
			}
		}
	}
	return nil, indexKey{}, false
}

// autoIndexPath returns the path scan indexes for a query no index serves:
// the smallest pinned path whose value is keyable, so the choice does not
// depend on map order. It reports false when there is none or the
// collection is already at maxAutoIndexes.
func (c *Collection) autoIndexPath(pins map[string]any) (string, bool) {
	if autoCount(c.indexList()) >= maxAutoIndexes {
		return "", false
	}
	best, found := "", false
	for path, v := range pins {
		if _, ok := keyOf(v); ok && (!found || path < best) {
			best, found = path, true
		}
	}
	return best, found
}

// scan hands consume the records the query can match, one shard's snapshot
// at a time, taken under that shard's read lock and handed over after it is
// released (see snapshot). With indexed set and a pinned path, the records
// are one index bucket — built first if no index serves the query and the
// collection is under maxAutoIndexes; otherwise they are every record. The
// consumer runs the full filter on what it gets: the index only prunes.
func (c *Collection) scan(q *query.Query, indexed bool, consume func([]scanned)) {
	var idx *hashIndex
	var k indexKey
	if indexed {
		pins := q.EqualityPaths()
		var ok bool
		if idx, k, ok = c.indexFor(pins); !ok {
			if path, build := c.autoIndexPath(pins); build {
				c.ensureIndex(path, true)
				idx, k, _ = c.indexFor(pins)
			}
		}
	}
	var snap []scanned
	for _, s := range c.shards {
		if idx == nil {
			snap = s.snapshot(snap[:0])
		} else {
			snap = snap[:0]
			s.mu.RLock()
			for key := range idx.parts[s.n][k] {
				snap = append(snap, scanned{key: key, rec: s.docs[key]})
			}
			s.mu.RUnlock()
		}
		consume(snap)
	}
}
