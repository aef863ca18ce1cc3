// Package storage implements the pull-based document database InvaliDB sits
// on top of. It stands in for the sharded MongoDB deployment of the paper's
// prototype: collections are hash-sharded by primary key, every record
// carries a strictly increasing version, writes produce fully specified
// after-images (the FindAndModify pattern from §5.4), queries execute through
// the shared pluggable query engine, and a capped oplog supports the
// log-tailing baseline.
package storage

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"invalidb/internal/document"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
)

// Options configures a database instance.
type Options struct {
	// Shards is the number of hash partitions per collection. Zero selects
	// the default of 8.
	Shards int
	// OplogCapacity bounds the capped operation log. Zero selects 65536.
	OplogCapacity int
}

// DB is an in-memory, sharded document database. Attach a Journal for
// durability across restarts (see AttachJournal/Recover).
type DB struct {
	mu          sync.RWMutex
	collections map[string]*Collection
	shards      int
	seq         atomic.Uint64 // global version/oplog sequence
	oplog       *Oplog
	journal     *Journal
	journalErr  atomic.Pointer[error]
}

// Open creates an empty database.
func Open(opts Options) *DB {
	if opts.Shards <= 0 {
		opts.Shards = 8
	}
	if opts.OplogCapacity <= 0 {
		opts.OplogCapacity = 65536
	}
	return &DB{
		collections: map[string]*Collection{},
		shards:      opts.Shards,
		oplog:       newOplog(opts.OplogCapacity),
	}
}

// C returns the named collection, creating it on first access.
func (db *DB) C(name string) *Collection {
	db.mu.RLock()
	c := db.collections[name]
	db.mu.RUnlock()
	if c != nil {
		return c
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if c = db.collections[name]; c != nil {
		return c
	}
	c = &Collection{name: name, db: db, shards: make([]*shard, db.shards)}
	for i := range c.shards {
		c.shards[i] = &shard{docs: map[string]*record{}}
	}
	db.collections[name] = c
	return c
}

// Oplog exposes the database's capped operation log.
func (db *DB) Oplog() *Oplog { return db.oplog }

// RegisterMetrics exports storage-level gauges: committed write sequence,
// open oplog tailers, and the worst tailer lag (how far the slowest
// log consumer trails the write head).
func (db *DB) RegisterMetrics(r *metrics.Registry) {
	r.Gauge("storage.seq", func() float64 { return float64(db.seq.Load()) })
	r.Gauge("storage.oplog.last_seq", func() float64 { return float64(db.oplog.LastSeq()) })
	r.Gauge("storage.oplog.tailers", func() float64 { return float64(db.oplog.Tailers()) })
	r.Gauge("storage.oplog.max_lag", func() float64 { return float64(db.oplog.MaxTailerLag()) })
	r.Gauge("storage.collections", func() float64 {
		db.mu.RLock()
		defer db.mu.RUnlock()
		return float64(len(db.collections))
	})
}

// commit records a completed write in the oplog and the attached journal.
func (db *DB) commit(ai *document.AfterImage) {
	db.oplog.append(ai)
	db.journalAppend(ai)
}

// nextSeq returns the next global sequence number. Sequence numbers double
// as record versions, so versions are strictly increasing across the whole
// database — even across delete/re-insert cycles of the same key, which is
// what InvaliDB's staleness avoidance relies on.
func (db *DB) nextSeq() uint64 { return db.seq.Add(1) }

// Collection is a hash-sharded set of documents keyed by "_id".
type Collection struct {
	name   string
	db     *DB
	shards []*shard

	idxMu   sync.RWMutex
	indexes map[string]*hashIndex
}

type shard struct {
	mu   sync.RWMutex
	docs map[string]*record
	// keyGen counts keyset changes (insert of a new key, delete). Updates in
	// place do not bump it: chunk cursors only need the key set, and caching
	// its sorted snapshot (sortedKeys, valid while sortedGen == keyGen) turns
	// repeated backfills over a stable keyspace from a sort per cursor into a
	// sort per keyset change. The cached slice is immutable once published.
	keyGen     uint64
	sortedGen  uint64
	sortedKeys []string
}

type record struct {
	doc     document.Document
	version uint64
}

// Entry is a versioned result item, the form initial results are handed to
// the InvaliDB cluster in.
type Entry struct {
	Key     string
	Version uint64
	Doc     document.Document
}

// Name returns the collection name.
func (c *Collection) Name() string { return c.name }

func (c *Collection) shardFor(key string) *shard {
	return c.shards[document.HashKey(key)%uint64(len(c.shards))]
}

// ErrDuplicateKey is returned by Insert when the primary key already exists.
var ErrDuplicateKey = fmt.Errorf("storage: duplicate key")

// ErrNotFound is returned by operations that target a missing document.
var ErrNotFound = fmt.Errorf("storage: not found")

// Insert stores a new document and returns its after-image. The document
// must carry an "_id"; it is deep-copied (Normalize returns a private copy),
// so the caller keeps ownership of its value. The after-image shares the
// stored record's document — see AfterImage.Doc for the contract.
func (c *Collection) Insert(d document.Document) (*document.AfterImage, error) {
	d = document.Normalize(d)
	key, ok := d.ID()
	if !ok {
		return nil, fmt.Errorf("storage: insert into %s: document has no _id", c.name)
	}
	s := c.shardFor(key)
	s.mu.Lock()
	if _, exists := s.docs[key]; exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrDuplicateKey, c.name, key)
	}
	ver := c.db.nextSeq()
	s.docs[key] = &record{doc: d, version: ver}
	s.keyGen++
	c.indexAdd(key, d)
	s.mu.Unlock()

	ai := &document.AfterImage{Collection: c.name, Key: key, Version: ver, Op: document.OpInsert, Doc: d}
	c.db.commit(ai)
	return ai, nil
}

// Replace overwrites an existing document wholesale and returns the
// after-image.
func (c *Collection) Replace(key string, d document.Document) (*document.AfterImage, error) {
	d = document.Normalize(d)
	if id, ok := d.ID(); ok && id != key {
		return nil, fmt.Errorf("storage: replace %s/%s: _id mismatch (%s)", c.name, key, id)
	}
	s := c.shardFor(key)
	s.mu.Lock()
	rec, exists := s.docs[key]
	if !exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, key)
	}
	d["_id"] = key
	ver := c.db.nextSeq()
	s.docs[key] = &record{doc: d, version: ver}
	c.indexRemove(key, rec.doc)
	c.indexAdd(key, d)
	s.mu.Unlock()

	ai := &document.AfterImage{Collection: c.name, Key: key, Version: ver, Op: document.OpUpdate, Doc: d}
	c.db.commit(ai)
	return ai, nil
}

// FindAndModify applies a MongoDB update document (operator form such as
// {$set: ..., $inc: ...}, or a full replacement document) to the keyed
// record and returns the after-image — the primitive the application server
// uses to feed InvaliDB (§5.4). With upsert true a missing record is created
// by applying the update to an empty document.
func (c *Collection) FindAndModify(key string, update map[string]any, upsert bool) (*document.AfterImage, error) {
	update = map[string]any(document.Normalize(document.Document(update)))
	s := c.shardFor(key)
	s.mu.Lock()
	rec, exists := s.docs[key]
	var base document.Document
	var old document.Document
	op := document.OpUpdate
	switch {
	case exists:
		base = rec.doc.Clone()
		old = rec.doc
	case upsert:
		base = document.Document{"_id": key}
		op = document.OpInsert
	default:
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, key)
	}
	updated, err := applyUpdate(base, update)
	if err != nil {
		s.mu.Unlock()
		return nil, fmt.Errorf("storage: update %s/%s: %w", c.name, key, err)
	}
	updated["_id"] = key
	ver := c.db.nextSeq()
	s.docs[key] = &record{doc: updated, version: ver}
	if !exists {
		s.keyGen++
	}
	if old != nil {
		c.indexRemove(key, old)
	}
	c.indexAdd(key, updated)
	s.mu.Unlock()

	ai := &document.AfterImage{Collection: c.name, Key: key, Version: ver, Op: op, Doc: updated}
	c.db.commit(ai)
	return ai, nil
}

// Delete removes a document and returns the delete after-image (a nil
// document, as the paper notes: "the after-image of a deleted entity is
// null").
func (c *Collection) Delete(key string) (*document.AfterImage, error) {
	s := c.shardFor(key)
	s.mu.Lock()
	rec, exists := s.docs[key]
	if !exists {
		s.mu.Unlock()
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, c.name, key)
	}
	delete(s.docs, key)
	s.keyGen++
	ver := c.db.nextSeq()
	c.indexRemove(key, rec.doc)
	s.mu.Unlock()

	ai := &document.AfterImage{Collection: c.name, Key: key, Version: ver, Op: document.OpDelete}
	c.db.commit(ai)
	return ai, nil
}

// Get returns a copy of the document stored under key along with its
// version.
func (c *Collection) Get(key string) (document.Document, uint64, bool) {
	s := c.shardFor(key)
	s.mu.RLock()
	rec, ok := s.docs[key]
	if !ok {
		s.mu.RUnlock()
		return nil, 0, false
	}
	doc := rec.doc.Clone()
	ver := rec.version
	s.mu.RUnlock()
	return doc, ver, true
}

// Len returns the number of documents in the collection.
func (c *Collection) Len() int {
	n := 0
	for _, s := range c.shards {
		s.mu.RLock()
		n += len(s.docs)
		s.mu.RUnlock()
	}
	return n
}

// Find executes a query and returns the matching documents with sort, offset,
// limit and projection applied.
func (c *Collection) Find(q *query.Query) ([]document.Document, error) {
	entries, err := c.FindEntries(q)
	if err != nil {
		return nil, err
	}
	docs := make([]document.Document, len(entries))
	for i, e := range entries {
		docs[i] = e.Doc
	}
	return docs, nil
}

// FindEntries executes a query and returns versioned entries — the form the
// application server ships to InvaliDB as the initial result. Projections
// are applied to the returned documents but matching and sorting always see
// the full record. Matching, sorting and the offset/limit cut all run on the
// stored records themselves (immutable, see scanned); only the entries that
// are returned are copied, so the caller owns what it gets and a sorted
// `limit 50` over a thousand matches copies fifty documents.
func (c *Collection) FindEntries(q *query.Query) ([]Entry, error) {
	if q.Collection != c.name {
		return nil, fmt.Errorf("storage: query targets %q, collection is %q", q.Collection, c.name)
	}
	matched := c.scan(q)

	sortEntries(matched, q)
	if q.Offset > 0 {
		if q.Offset >= len(matched) {
			matched = nil
		} else {
			matched = matched[q.Offset:]
		}
	}
	if q.Limit > 0 && len(matched) > q.Limit {
		matched = matched[:q.Limit]
	}
	for i := range matched {
		if len(q.Projection) > 0 {
			matched[i].Doc = q.Project(matched[i].Doc) // copies what it keeps
		} else {
			matched[i].Doc = matched[i].Doc.Clone()
		}
	}
	return matched, nil
}

// scanned is a point-in-time reference to a stored record. Records are
// immutable once stored (writes replace the *record pointer under the shard
// lock; an update works on a clone of the old document), so a snapshot taken
// under RLock can be matched and cloned after the lock is released without
// racing concurrent writers — and a write's after-image can share the
// record's document instead of owning another copy.
type scanned struct {
	key string
	rec *record
}

// snapshotShard copies the shard's (key, record) pairs under its read lock.
// Predicate evaluation deliberately happens outside: query.Match is
// unbounded, user-controlled work, and running it under the shard lock would
// let a single large scan stall every concurrent writer on the shard.
func (s *shard) snapshot(buf []scanned) []scanned {
	s.mu.RLock()
	for key, rec := range s.docs {
		buf = append(buf, scanned{key: key, rec: rec})
	}
	s.mu.RUnlock()
	return buf
}

// matchSnapshot evaluates the query against a record snapshot, lock-free.
// The entries share the stored documents: FindEntries copies the ones it
// returns.
func matchSnapshot(q *query.Query, snap []scanned, out []Entry) []Entry {
	for _, sn := range snap {
		if q.Match(sn.rec.doc) {
			out = append(out, Entry{Key: sn.key, Version: sn.rec.version, Doc: sn.rec.doc})
		}
	}
	return out
}

// scan gathers matching entries, using a hash index when the query pins an
// indexed path to a constant, and falling back to a full collection scan.
// Both paths evaluate the predicate outside the shard locks (see snapshot).
func (c *Collection) scan(q *query.Query) []Entry {
	if keys, ok := c.indexCandidates(q); ok {
		snap := make([]scanned, 0, len(keys))
		for _, key := range keys {
			s := c.shardFor(key)
			s.mu.RLock()
			if rec, exists := s.docs[key]; exists {
				snap = append(snap, scanned{key: key, rec: rec})
			}
			s.mu.RUnlock()
		}
		return matchSnapshot(q, snap, nil)
	}
	var out []Entry
	var snap []scanned
	for _, s := range c.shards {
		snap = s.snapshot(snap[:0])
		out = matchSnapshot(q, snap, out)
	}
	return out
}

// Count returns the number of documents matching the query's filter
// (ignoring limit/offset). Like scan, the predicate runs on a lock-free
// record snapshot so counting never blocks writers.
func (c *Collection) Count(q *query.Query) (int, error) {
	if q.Collection != c.name {
		return 0, fmt.Errorf("storage: query targets %q, collection is %q", q.Collection, c.name)
	}
	n := 0
	var snap []scanned
	for _, s := range c.shards {
		snap = s.snapshot(snap[:0])
		for _, sn := range snap {
			if q.Match(sn.rec.doc) {
				n++
			}
		}
	}
	return n, nil
}

// sortEntries orders results by the query comparator. Even without an
// explicit sort, limit/offset windows need the total order the engine
// defines (primary-key ascending) so pull-based and real-time results agree;
// an entry's key is its document's primary key, so that order needs no
// comparator.
func sortEntries(entries []Entry, q *query.Query) {
	if len(entries) < 2 {
		return
	}
	if len(q.Sort) == 0 {
		sort.Slice(entries, func(i, j int) bool { return entries[i].Key < entries[j].Key })
		return
	}
	sort.Slice(entries, func(i, j int) bool { return q.Compare(entries[i].Doc, entries[j].Doc) < 0 })
}
