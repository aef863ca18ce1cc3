package storage

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"invalidb/internal/document"
)

// Journal is an append-only write-ahead log of after-images. The paper's
// substrate (MongoDB) is durable; attaching a Journal to a DB gives the
// in-memory store the same property: every committed write is appended
// before the call returns, and Recover replays a journal into an empty
// database after a restart.
//
// Record format: uint32 length | uint32 CRC32C | payload (encoded
// after-image). A torn final record (crash mid-append) is detected by
// length/checksum and discarded, like a classic redo log.
type Journal struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	path string
	// SyncEvery controls fsync cadence: 1 = every record (slow, strongest),
	// N>1 = every Nth record, 0 = rely on OS flushing (fastest).
	syncEvery int
	appended  uint64
}

// JournalOptions tunes durability.
type JournalOptions struct {
	// SyncEvery is the fsync cadence (0 = never fsync explicitly, 1 = every
	// record). Default 0: the paper's availability story tolerates losing a
	// tail of writes on crash, since InvaliDB results are eventually
	// consistent with the database.
	SyncEvery int
}

// OpenJournal opens (creating if needed) an append-only journal file.
func OpenJournal(path string, opts JournalOptions) (*Journal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open journal: %w", err)
	}
	return &Journal{
		f:         f,
		w:         bufio.NewWriterSize(f, 1<<16),
		path:      path,
		syncEvery: opts.SyncEvery,
	}, nil
}

// Append writes one after-image record.
func (j *Journal) Append(ai *document.AfterImage) error {
	payload, err := ai.Encode()
	if err != nil {
		return err
	}
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(hdr[4:], crc32.Checksum(payload, castagnoli))
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return fmt.Errorf("storage: journal closed")
	}
	if _, err := j.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := j.w.Write(payload); err != nil {
		return err
	}
	j.appended++
	if j.syncEvery > 0 && j.appended%uint64(j.syncEvery) == 0 {
		if err := j.w.Flush(); err != nil {
			return err
		}
		if err := j.f.Sync(); err != nil {
			return err
		}
	}
	return nil
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Flush pushes buffered records to the OS.
func (j *Journal) Flush() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	return j.w.Flush()
}

// Close flushes and closes the journal file.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return nil
	}
	if err := j.w.Flush(); err != nil {
		return err
	}
	err := j.f.Close()
	j.f = nil
	return err
}

// Appended reports the number of records written by this handle.
func (j *Journal) Appended() uint64 {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// ReplayJournal reads a journal file and invokes fn for every intact record
// in order. It stops cleanly at a torn final record and returns the count of
// replayed records.
func ReplayJournal(path string, fn func(*document.AfterImage) error) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, fmt.Errorf("storage: open journal for replay: %w", err)
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	n := 0
	for {
		var hdr [8]byte
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if err == io.EOF {
				return n, nil
			}
			// A partial header is a torn tail: stop cleanly.
			if err == io.ErrUnexpectedEOF {
				return n, nil
			}
			return n, err
		}
		size := binary.BigEndian.Uint32(hdr[:4])
		sum := binary.BigEndian.Uint32(hdr[4:])
		if size == 0 || size > 64<<20 {
			return n, nil // corrupt length: treat as torn tail
		}
		payload := make([]byte, size)
		if _, err := io.ReadFull(r, payload); err != nil {
			if err == io.EOF || err == io.ErrUnexpectedEOF {
				return n, nil // torn record
			}
			return n, err
		}
		if crc32.Checksum(payload, castagnoli) != sum {
			return n, nil // corrupt record: stop at the last intact prefix
		}
		ai, err := document.DecodeAfterImage(payload)
		if err != nil {
			return n, fmt.Errorf("storage: journal record %d: %w", n, err)
		}
		if err := fn(ai); err != nil {
			return n, err
		}
		n++
	}
}

// AttachJournal makes the database append every committed write to the
// journal. Attach before the first write; attaching twice replaces the
// journal.
func (db *DB) AttachJournal(j *Journal) {
	db.mu.Lock()
	db.journal = j
	db.mu.Unlock()
}

// journalAppend is called by the oplog hook with every committed write.
func (db *DB) journalAppend(ai *document.AfterImage) {
	db.mu.RLock()
	j := db.journal
	db.mu.RUnlock()
	if j != nil {
		// Journal failures must not fail the in-memory commit that already
		// happened; they surface via JournalErr.
		if err := j.Append(ai); err != nil {
			db.journalErr.Store(&err)
		}
	}
}

// JournalErr returns the first asynchronous journal failure, if any.
func (db *DB) JournalErr() error {
	if p := db.journalErr.Load(); p != nil {
		return *p
	}
	return nil
}

// Recover replays a journal file into the database. The database must be
// empty; record versions are preserved so InvaliDB staleness semantics
// survive restarts. It returns the number of records applied.
func (db *DB) Recover(path string) (int, error) {
	if db.seq.Load() != 0 {
		return 0, fmt.Errorf("storage: recover into a non-empty database")
	}
	applied, err := ReplayJournal(path, func(ai *document.AfterImage) error {
		c := db.C(ai.Collection)
		s := c.shardFor(ai.Key)
		s.mu.Lock()
		switch ai.Op {
		case document.OpDelete:
			if rec, ok := s.docs[ai.Key]; ok {
				c.indexMove(s, ai.Key, rec.doc, nil)
				delete(s.docs, ai.Key)
			}
		default:
			doc := ai.Doc.Clone()
			var old document.Document
			if rec, ok := s.docs[ai.Key]; ok {
				old = rec.doc
			}
			s.docs[ai.Key] = &record{doc: doc, version: ai.Version}
			c.indexMove(s, ai.Key, old, doc)
		}
		s.mu.Unlock()
		// Keep the version sequence ahead of everything replayed.
		for {
			cur := db.seq.Load()
			if ai.Version <= cur || db.seq.CompareAndSwap(cur, ai.Version) {
				break
			}
		}
		return nil
	})
	if err != nil {
		return applied, err
	}
	return applied, nil
}
