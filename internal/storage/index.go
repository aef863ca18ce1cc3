package storage

import (
	"fmt"
	"sort"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

// hashIndex is an equality index: canonical value bytes -> set of primary
// keys. It accelerates queries that pin the indexed path to a constant.
// Multi-valued paths (arrays) index every element, like MongoDB's multikey
// indexes.
type hashIndex struct {
	path    document.Path
	entries map[string]map[string]struct{}
}

// EnsureIndex creates an equality (hash) index on a dotted path and
// backfills it from existing documents. Creating an index that already
// exists is a no-op.
//
// Lock order is shard -> index everywhere (writes hold their shard lock while
// maintaining indexes), so the backfill freezes all shards first and only
// then takes the index lock.
func (c *Collection) EnsureIndex(path string) error {
	if path == "" {
		return fmt.Errorf("storage: empty index path")
	}
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
	if c.indexes == nil {
		c.indexes = map[string]*hashIndex{}
	}
	if _, exists := c.indexes[path]; exists {
		return nil
	}
	idx := &hashIndex{path: document.ParsePath(path), entries: map[string]map[string]struct{}{}}
	for _, s := range c.shards {
		for key, rec := range s.docs {
			idx.add(key, rec.doc)
		}
	}
	c.indexes[path] = idx
	return nil
}

// Indexes lists the indexed paths in sorted order.
func (c *Collection) Indexes() []string {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	out := make([]string, 0, len(c.indexes))
	for p := range c.indexes {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// keyCollector gathers the distinct canonical encodings of the values an
// indexed path reaches.
type keyCollector struct {
	seen map[string]struct{}
	keys []string
}

func (c *keyCollector) Visit(v any) bool {
	if document.IsMissing(v) {
		return false
	}
	k := string(document.MarshalCanonical(v))
	if _, dup := c.seen[k]; !dup {
		c.seen[k] = struct{}{}
		c.keys = append(c.keys, k)
	}
	return false
}

func (idx *hashIndex) keysFor(d document.Document) []string {
	c := keyCollector{seen: map[string]struct{}{}}
	idx.path.WalkLeaves(d, &c)
	return c.keys
}

func (idx *hashIndex) add(key string, d document.Document) {
	for _, vk := range idx.keysFor(d) {
		set := idx.entries[vk]
		if set == nil {
			set = map[string]struct{}{}
			idx.entries[vk] = set
		}
		set[key] = struct{}{}
	}
}

func (idx *hashIndex) remove(key string, d document.Document) {
	for _, vk := range idx.keysFor(d) {
		if set := idx.entries[vk]; set != nil {
			delete(set, key)
			if len(set) == 0 {
				delete(idx.entries, vk)
			}
		}
	}
}

func (c *Collection) indexAdd(key string, d document.Document) {
	c.idxMu.Lock()
	for _, idx := range c.indexes {
		idx.add(key, d)
	}
	c.idxMu.Unlock()
}

func (c *Collection) indexRemove(key string, d document.Document) {
	c.idxMu.Lock()
	for _, idx := range c.indexes {
		idx.remove(key, d)
	}
	c.idxMu.Unlock()
}

// indexCandidates returns the primary keys an index narrows the query to,
// or ok=false when no indexed path is pinned by the query. Candidates still
// get the full filter applied — the index is purely a pruning step.
func (c *Collection) indexCandidates(q *query.Query) ([]string, bool) {
	c.idxMu.RLock()
	defer c.idxMu.RUnlock()
	if len(c.indexes) == 0 {
		return nil, false
	}
	for path, v := range q.EqualityPaths() {
		idx, ok := c.indexes[path]
		if !ok {
			continue
		}
		vk := string(document.MarshalCanonical(v))
		set := idx.entries[vk]
		keys := make([]string, 0, len(set))
		for k := range set {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		return keys, true
	}
	return nil, false
}
