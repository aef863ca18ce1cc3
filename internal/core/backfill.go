package core

import "time"

// This file is the matching-grid half of the watermark-certified backfill
// protocol (DESIGN.md §12). The application server reads the store in chunks,
// bracketing every chunk read with a low and a high watermark drawn from the
// storage sequence allocator; the high mark travels the writes topic behind
// every write the chunk could have raced. A matching cell holds a chunk until
// it has observed the chunk's high watermark — at which point every in-window
// write has been applied to the cell's trackers — then installs the chunk
// under the never-regress rule (an in-window delta supersedes the chunk's
// stale row) and publishes a certificate. The application server admits the
// subscription once every chunk holds certificates from all cells of the row:
// the assembled result is equivalent to a snapshot taken at some point inside
// the backfill window, despite full concurrent write load.

// backfillChunkPayload is one write partition's slice of a BackfillChunk,
// fanned by query ingestion to every cell of the query's row. Cells with an
// empty slice still receive (and certify) the chunk: the certificate conveys
// "my partition's in-window writes are folded in", which holds vacuously but
// must still be attested so the application server can count Cells distinct
// certificates.
type backfillChunkPayload struct {
	tenant string
	sid    string
	bfid   string
	hash   uint64
	chunk  int
	low    uint64
	high   uint64
	last   bool
	// cells is the write-partition count of the map the chunk was sliced
	// under: the certificate quorum the application server must collect.
	// Carried in the payload — not read from cluster options at certify
	// time — so a write-partition resize mid-backfill cannot desync the
	// quorum between slicing and certification.
	cells   int
	entries []ResultEntry
}

// backfillPendingBudget bounds how many chunks a cell buffers while waiting
// for their high watermarks. Overflowing chunks are reconciled immediately:
// per-key convergence is preserved by the never-regress install and the
// version-guarded live stream (a racing write supersedes the early-installed
// row when it arrives), only the cut certification weakens to eventual for
// that chunk. The budget is the fixed in-flight memory the protocol promises.
const backfillPendingBudget = 4

// cellBackfill is one in-flight backfill as seen by one matching cell: the
// highest watermark observed and the chunks still gated on theirs.
type cellBackfill struct {
	wmSeen  uint64
	pending []*backfillChunkPayload
	lastAt  time.Time
}

//invalidb:hotpath
func (b *matchBolt) backfillState(bfid string) *cellBackfill {
	cb := b.backfills[bfid]
	if cb == nil {
		//invalidb:allow hotpathalloc backfill state is allocated once per backfill, amortized over its chunks
		cb = &cellBackfill{}
		b.backfills[bfid] = cb
	}
	cb.lastAt = b.now
	return cb
}

// handleBackfillMark folds a watermark broadcast into the backfill's window
// state and releases every pending chunk whose high mark is now covered.
// Marks are broadcast to all cells (write ingestion cannot know which rows
// run backfills), so cells outside the query's row accumulate an empty
// cellBackfill that the tick expiry reclaims.
func (b *matchBolt) handleBackfillMark(m *BackfillMark) {
	cb := b.backfillState(m.BackfillID)
	if m.Seq > cb.wmSeen {
		cb.wmSeen = m.Seq
	}
	if len(cb.pending) == 0 {
		return
	}
	kept := cb.pending[:0]
	for _, p := range cb.pending {
		if p.high <= cb.wmSeen {
			b.reconcileChunk(p)
		} else {
			kept = append(kept, p)
		}
	}
	for i := len(kept); i < len(cb.pending); i++ {
		cb.pending[i] = nil
	}
	cb.pending = kept
}

// handleBackfillChunk reconciles the chunk immediately when its window is
// already closed (the high mark overtook the chunk on the queries topic),
// otherwise parks it until the mark arrives.
func (b *matchBolt) handleBackfillChunk(p *backfillChunkPayload) {
	cb := b.backfillState(p.bfid)
	if p.high <= cb.wmSeen {
		b.reconcileChunk(p)
		return
	}
	cb.pending = append(cb.pending, p)
	if len(cb.pending) > backfillPendingBudget {
		oldest := cb.pending[0]
		copy(cb.pending, cb.pending[1:])
		cb.pending[len(cb.pending)-1] = nil
		cb.pending = cb.pending[:len(cb.pending)-1]
		b.reconcileChunk(oldest)
	}
}

// reconcileChunk applies the virtual-cut rule: chunk rows are folded into the
// query's trackers under the never-regress guard — a tracked version newer
// than the chunk's means an in-window write already delivered fresher state,
// so the chunk row is discarded — then the retention buffer is replayed to
// close the residual race (a write that slipped past the watermark barrier
// through a different ingest node; the per-query version guard makes the
// replay idempotent). The cell then attests the cut with a certificate.
//
//invalidb:hotpath
func (b *matchBolt) reconcileChunk(p *backfillChunkPayload) {
	mq := b.queries[p.hash]
	if mq == nil {
		// No live query at this cell: the start was lost or the
		// subscription expired mid-backfill. Withhold the certificate — the
		// application server's chunk timeout re-publishes the start before
		// it resends (an install that exists only gains the subscription
		// id, and a backfill install skips replay), and a restarted cell
		// shows in the heartbeat, which restarts the backfill at its driver.
		return
	}
	b.c.mBackfillChunks.Inc()
	for i := range p.entries {
		e := &p.entries[i]
		if cur, ok := mq.tracked[e.Key]; ok && e.Version <= cur {
			// In-window (or replayed) write superseded this chunk row: the
			// live stream already delivered fresher state; installing the
			// stale row would regress it.
			b.c.mBackfillReconciled.Inc()
			continue
		}
		b.track(mq, e.Key, e.Version)
	}
	// Pre-window images are skipped: the chunk read began after those writes
	// were durable, so the chunk rows already reflect them. Only in-window
	// and later images can supersede a chunk row, which bounds the replay by
	// the chunk's window, never the whole retention ring — the counter is
	// the migration tests' evidence of that bound.
	b.c.mBackfillReplayed.Add(int64(b.replay(mq, p.low)))
	b.c.mBackfillCertified.Inc()
	//invalidb:allow hotpathalloc one certificate per chunk reconcile, amortized over the chunk's entries
	b.c.publishBackfillCert(&BackfillCert{
		Tenant:         p.tenant,
		SubscriptionID: p.sid,
		BackfillID:     p.bfid,
		//invalidb:allow hotpathalloc one ID string per certificate, amortized over the chunk's entries
		QueryID: QueryIDString(p.hash),
		Chunk:   p.chunk,
		Cell:    b.cell.Col,
		Cells:   p.cells,
		Last:    p.last,
		Origin:  b.origin,
		Status:  BackfillStatusOK,
	})
}

// expireBackfills reclaims window state of backfills idle beyond twice the
// retention window: either the backfill completed (certificates delivered,
// marks stopped) or its application server is gone. Chunks still pending are
// dropped; an abandoned backfill's chunks must not be installed later, when
// their windows can no longer be related to the live stream.
func (b *matchBolt) expireBackfills(now time.Time) {
	cutoff := now.Add(-2 * b.c.opts.RetentionTime)
	for bfid, cb := range b.backfills {
		if cb.lastAt.Before(cutoff) {
			delete(b.backfills, bfid)
		}
	}
}

// publishBackfillCert serializes and publishes a chunk certificate on the
// tenant's notify topic.
func (c *Cluster) publishBackfillCert(cert *BackfillCert) {
	env := &Envelope{Kind: KindBackfillCert, BackfillCert: cert}
	data, err := env.Encode()
	if err != nil {
		return
	}
	_ = c.bus.Publish(c.topics.Notify(cert.Tenant), data)
}
