// Package quaestor implements the query-result caching layer of the
// Quaestor architecture (paper §4, §7; Gessert et al., VLDB 2017) on top of
// InvaliDB: pull-based query results are cached at the application server,
// and InvaliDB's low-latency change notifications invalidate stale entries
// the moment a write changes a result — the consistent query caching scheme
// that gave Baqend order-of-magnitude latency and throughput improvements
// for pull-based queries.
package quaestor

import (
	"sync"
	"sync/atomic"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/query"
)

// Options tunes the cache.
type Options struct {
	// MaxEntries bounds the number of cached queries; the least recently
	// used entry is evicted beyond it. Default 1024.
	MaxEntries int
}

// Cache is an InvaliDB-invalidated query result cache.
type Cache struct {
	server *appserver.Server
	opts   Options

	mu      sync.Mutex
	entries map[uint64]*entry
	lru     []uint64 // least recently used first (small caches: linear is fine)

	hits          atomic.Uint64
	misses        atomic.Uint64
	invalidations atomic.Uint64

	// afterMiss, when a test sets it, runs between a miss and its subscribe.
	afterMiss func()
}

type entry struct {
	result []document.Document
	valid  bool
	sub    *appserver.Subscription
}

// New creates a cache over an application server.
func New(server *appserver.Server, opts Options) *Cache {
	if opts.MaxEntries <= 0 {
		opts.MaxEntries = 1024
	}
	return &Cache{server: server, opts: opts, entries: map[uint64]*entry{}}
}

// Stats reports cache effectiveness.
func (c *Cache) Stats() (hits, misses, invalidations uint64) {
	return c.hits.Load(), c.misses.Load(), c.invalidations.Load()
}

// Query serves a pull-based query through the cache. The bool reports
// whether the result came from cache. On a miss the query is registered with
// InvaliDB and its subscription's initial result is cached: any result change
// marks the entry stale, so the next read re-executes against the database.
func (c *Cache) Query(spec query.Spec) ([]document.Document, bool, error) {
	q, err := query.Compile(spec)
	if err != nil {
		return nil, false, err
	}
	hash := core.TenantQueryHash(c.server.Tenant(), q)

	c.mu.Lock()
	e, ok := c.entries[hash]
	if ok && e.valid {
		c.touchLocked(hash)
		result := e.result
		c.mu.Unlock()
		c.hits.Add(1)
		return result, true, nil
	}
	c.mu.Unlock()
	c.misses.Add(1)
	if c.afterMiss != nil {
		c.afterMiss()
	}

	// Subscribe before taking the lock: registration reads the result from
	// the database, and holding c.mu across that would stall every
	// concurrent cache read behind one slow bootstrap. That read is the one
	// cached — the snapshot every notification is relative to — so a write
	// racing the miss invalidates the entry instead of hiding behind it.
	sub, err := c.server.Subscribe(spec)
	var result []document.Document
	if err == nil {
		result, ok = initialResult(sub)
	}
	if err != nil || !ok {
		// Degraded mode: serve uncached rather than fail the read — the
		// pull-based path must survive a real-time outage (§5).
		result, err := c.server.Query(spec)
		return result, false, err
	}

	c.mu.Lock()
	if e, ok = c.entries[hash]; ok && e.valid {
		// Another miss installed this query while we subscribed; its entry
		// stands on its own subscription's read.
		c.mu.Unlock()
		_ = sub.Close()
		return result, false, nil
	}
	c.dropLocked(hash) // a stale entry gives way to this read and its subscription
	e = &entry{result: result, valid: true, sub: sub}
	c.entries[hash] = e
	c.lru = append(c.lru, hash)
	go c.watch(hash, e)
	c.evictLocked()
	c.mu.Unlock()
	return result, false, nil
}

// initialResult waits for a subscription's initial result, past any change
// delivered ahead of it while another subscription to the query is live: the
// initial result is the state every later event is relative to. A
// subscription that fails first is closed.
func initialResult(sub *appserver.Subscription) ([]document.Document, bool) {
	for ev := range sub.C() {
		switch ev.Type {
		case appserver.EventInitial:
			return ev.Docs, true
		case appserver.EventError:
			_ = sub.Close()
			return nil, false
		}
	}
	return nil, false
}

// watch invalidates the entry whenever InvaliDB reports a result change and
// drops it when the real-time path is lost, so reads fall back to the
// database. It ends when the subscription closes.
func (c *Cache) watch(hash uint64, e *entry) {
	for ev := range e.sub.C() {
		c.mu.Lock()
		if c.entries[hash] == e {
			if ev.Type == appserver.EventError {
				c.dropLocked(hash)
			} else {
				c.invalidations.Add(1)
				e.valid = false
			}
		}
		c.mu.Unlock()
	}
}

func (c *Cache) touchLocked(hash uint64) {
	for i, h := range c.lru {
		if h == hash {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			c.lru = append(c.lru, hash)
			return
		}
	}
}

func (c *Cache) evictLocked() {
	for len(c.entries) > c.opts.MaxEntries && len(c.lru) > 0 {
		c.dropLocked(c.lru[0])
	}
}

func (c *Cache) dropLocked(hash uint64) {
	e, ok := c.entries[hash]
	if !ok {
		return
	}
	delete(c.entries, hash)
	for i, h := range c.lru {
		if h == hash {
			c.lru = append(c.lru[:i], c.lru[i+1:]...)
			break
		}
	}
	_ = e.sub.Close()
}

// Len returns the number of cached queries.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Close drops all entries and their invalidation subscriptions.
func (c *Cache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for hash := range c.entries {
		c.dropLocked(hash)
	}
	return nil
}
