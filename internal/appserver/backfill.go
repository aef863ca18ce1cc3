package appserver

import (
	"errors"
	"fmt"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/storage"
)

// This file drives the application-server half of the watermark-certified
// backfill (DESIGN.md §12). Instead of executing the full bootstrap query and
// shipping the entire result in one subscribe request, the initial result is
// read in fixed-size chunks. Every chunk read is bracketed by a low and a
// high watermark drawn from the storage sequence allocator; the marks travel
// the writes topic, in stream order with the writes they bracket, so a
// matching cell that has seen the high mark has folded in every write the
// chunk could have raced. Each cell attests that with a certificate; a chunk
// is done when every cell of the query's row certified it, and the
// subscription is admitted — EventInitial delivered — after the final chunk.
// In-flight memory is bounded by one chunk on this side and
// backfillPendingBudget chunks per cell; a lost message re-sends the chunk
// under a fresh watermark window after a timeout, and a restart of the node it
// installs on — seen in that node's heartbeat — starts the backfill over.

const (
	// maxBackfillAttempts bounds whole-backfill restarts (matching-cell
	// crashes mid-backfill) before the subscription fails.
	maxBackfillAttempts = 5
	// maxChunkRetries bounds certificate-timeout re-sends of a single chunk.
	maxChunkRetries = 8
	// backfillPipelineWindow is how many uncertified chunks the driver keeps
	// in flight. Reading ahead overlaps chunk reads with certificate round
	// trips instead of serializing one RTT per chunk; the window matches the
	// cell-side pending budget (core.backfillPendingBudget) so a cell never
	// has to early-reconcile a chunk just because the driver ran ahead.
	backfillPipelineWindow = 4
)

var (
	errBackfillRestart = errors.New("appserver: backfill restarted by cluster")
	errBackfillAborted = errors.New("appserver: backfill aborted")
)

func (s *Server) newBackfillID() string {
	s.rngMu.Lock()
	defer s.rngMu.Unlock()
	return fmt.Sprintf("b%08x%08x", s.rng.Uint32(), s.rng.Uint32())
}

// backfillLoop runs one subscription's backfill to admission, restarting the
// whole protocol — fresh BackfillID, fresh cursor — when the node the query's
// row lives on restarted and lost its window state (restartBackfills).
func (s *Server) backfillLoop(sub *Subscription) {
	defer s.wg.Done()
	s.backfillActive.Add(1)
	defer s.backfillActive.Add(-1)
	var err error
	for attempt := 0; attempt < maxBackfillAttempts; attempt++ {
		if attempt > 0 {
			if !s.sleepInterruptible(s.jitteredBackoff(attempt-1, 50*time.Millisecond, s.opts.BackfillChunkTimeout)) {
				return
			}
		}
		err = s.runBackfill(sub, sub.getPlace(), false)
		if err == nil {
			// Admitted. Map epochs published mid-backfill were deliberately
			// left to this driver (reinstall skips backfilling
			// subscriptions): if the query row moved meanwhile, move it now.
			s.reinstall(sub, placement.moved)
			return
		}
		if err == errBackfillAborted {
			return
		}
		if err != errBackfillRestart {
			break
		}
	}
	sub.fail(fmt.Errorf("appserver: backfill failed: %w", err))
}

// inflightChunk is one published, not-yet-certified chunk of a pipelined
// backfill: its message (re-sent with refreshed window and rows on retry),
// the exact key segments its read walked, the distinct cells that certified
// it so far, and its retry budget.
type inflightChunk struct {
	bc       *core.BackfillChunk
	segs     []storage.ChunkSegment
	seen     map[int]struct{}
	retries  int
	deadline time.Time
}

// runBackfill executes one backfill attempt: announce, then pipeline chunk
// reads against certificate collection — up to backfillPipelineWindow chunks
// are in flight at once — and admit when the final chunk is certified.
// Every control envelope is stamped with at's epoch so the owner under that
// map installs the window. With migration set the subscription is already
// admitted (this is a resize moving its row): no EventInitial is emitted,
// chunk rows surface as live events where they win, and on completion the
// maintained result is reconciled against the scan to drop documents
// deleted during the ownership gap.
func (s *Server) runBackfill(sub *Subscription, at placement, migration bool) error {
	bfid := s.newBackfillID()
	certs := make(chan *core.BackfillCert, 64)
	s.bfMu.Lock()
	s.bfCerts[bfid] = certs
	s.bfMu.Unlock()
	defer func() {
		s.bfMu.Lock()
		delete(s.bfCerts, bfid)
		s.bfMu.Unlock()
	}()

	if err := s.publishBackfillStart(sub, bfid, at.epoch); err != nil {
		return err
	}
	cur := s.db.C(sub.q.Collection).NewChunkCursor(sub.q)
	var inflight []*inflightChunk
	chunkIdx := 0
	lastRead := false
	// firstLow and chunkKeys feed the migration reconciliation: the earliest
	// watermark of the scan and every key the scan returned.
	var firstLow uint64
	var chunkKeys map[string]struct{}
	if migration {
		chunkKeys = map[string]struct{}{}
	}
	timer := time.NewTimer(s.opts.BackfillChunkTimeout)
	defer timer.Stop()
	for {
		// Fill the window: read ahead while certificates are outstanding.
		for !lastRead && len(inflight) < backfillPipelineWindow {
			sub.mu.Lock()
			closed := sub.closed
			sub.mu.Unlock()
			if closed {
				return errBackfillAborted
			}
			entries, more, err := s.backfillChunk(sub, bfid, chunkIdx, cur, nil)
			if err != nil {
				return err
			}
			last := !more
			if chunkIdx == 0 {
				firstLow = entries.low
			}
			if migration {
				for _, e := range entries.rows {
					chunkKeys[e.Key] = struct{}{}
				}
			}
			bc := &core.BackfillChunk{
				Tenant:         s.opts.Tenant,
				SubscriptionID: sub.id,
				BackfillID:     bfid,
				QueryHash:      sub.hash,
				Chunk:          chunkIdx,
				Low:            entries.low,
				High:           entries.high,
				Last:           last,
				Entries:        entries.rows,
				Epoch:          at.epoch,
			}
			if err := s.publishEnvelope(s.topics.Queries(), &core.Envelope{Kind: core.KindBackfillChunk, BackfillChunk: bc}); err != nil {
				return err
			}
			inflight = append(inflight, &inflightChunk{
				bc: bc, segs: cur.Segments(), seen: map[int]struct{}{},
				deadline: time.Now().Add(s.opts.BackfillChunkTimeout),
			})
			chunkIdx++
			lastRead = last
		}
		if len(inflight) == 0 {
			break // every chunk read and certified
		}

		// Pump certificates until the oldest outstanding chunk times out.
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		timer.Reset(time.Until(inflight[0].deadline))
		select {
		case <-s.done:
			return errBackfillAborted
		case c := <-certs:
			if c.BackfillID != bfid {
				continue
			}
			if c.Status == core.BackfillStatusRestart && at.on(c.Origin) {
				return errBackfillRestart
			}
			for i, fc := range inflight {
				if fc.bc.Chunk != c.Chunk {
					continue
				}
				fc.seen[c.Cell] = struct{}{}
				if len(fc.seen) >= c.Cells {
					inflight = append(inflight[:i], inflight[i+1:]...)
				}
				break
			}
		case <-timer.C:
			// Oldest chunk uncertified: the start, the chunk, a mark, or the
			// certificates were lost. Re-announce the backfill — a cell that
			// never installed the query withholds every certificate — then
			// re-read the same key range under a fresh watermark window and
			// re-send. A cell that holds the query only gains the id again.
			fc := inflight[0]
			if fc.retries >= maxChunkRetries {
				return fmt.Errorf("chunk %d uncertified after %d attempts", fc.bc.Chunk, fc.retries+1)
			}
			s.mBackfillRetries.Inc()
			if !s.sleepInterruptible(s.jitteredBackoff(fc.retries, 50*time.Millisecond, s.opts.BackfillChunkTimeout)) {
				return errBackfillAborted
			}
			fc.retries++
			if err := s.publishBackfillStart(sub, bfid, at.epoch); err != nil {
				return err
			}
			entries, _, err := s.backfillChunk(sub, bfid, fc.bc.Chunk, cur, fc.segs)
			if err != nil {
				return err
			}
			if migration {
				for _, e := range entries.rows {
					chunkKeys[e.Key] = struct{}{}
				}
			}
			fc.bc.Low, fc.bc.High, fc.bc.Entries = entries.low, entries.high, entries.rows
			if err := s.publishEnvelope(s.topics.Queries(), &core.Envelope{Kind: core.KindBackfillChunk, BackfillChunk: fc.bc}); err != nil {
				return err
			}
			fc.deadline = time.Now().Add(s.opts.BackfillChunkTimeout)
		}
	}
	if migration {
		sub.reconcileMigration(chunkKeys, firstLow)
		return nil
	}
	sub.admit()
	return nil
}

// chunkWindow is one chunk read together with its watermark window.
type chunkWindow struct {
	low, high uint64
	rows      []core.ResultEntry
}

// backfillChunk brackets one chunk read with watermarks — emitted into the
// oplog AND published on the writes topic, where write ingestion turns them
// into a flush barrier — and folds the rows into the subscription's local
// state (version-guarded, so an in-window delta that already arrived wins).
// A nil segs reads the next chunk and advances the cursor; non-nil re-reads
// exactly that recorded key range (certificate-timeout retry) without moving
// the pipeline head. The second return reports whether more chunks follow;
// it is meaningless on a re-read.
func (s *Server) backfillChunk(sub *Subscription, bfid string, chunk int, cur *storage.ChunkCursor, segs []storage.ChunkSegment) (chunkWindow, bool, error) {
	label := fmt.Sprintf("%s.c%d", bfid, chunk)
	low := s.db.EmitWatermark(label)
	if err := s.publishBackfillMark(bfid, chunk, core.BackfillPhaseLow, low); err != nil {
		return chunkWindow{}, false, err
	}
	var srows []storage.Entry
	var done bool
	if segs != nil {
		srows = cur.Reread(segs)
	} else {
		srows, done = cur.Next(s.opts.BackfillChunkSize)
	}
	high := s.db.EmitWatermark(label)
	if err := s.publishBackfillMark(bfid, chunk, core.BackfillPhaseHigh, high); err != nil {
		return chunkWindow{}, false, err
	}
	rows := make([]core.ResultEntry, len(srows))
	for i, r := range srows {
		rows[i] = core.ResultEntry{Key: r.Key, Version: r.Version, Doc: r.Doc}
	}
	sub.mergeChunk(rows)
	return chunkWindow{low: low, high: high, rows: rows}, !done, nil
}

// routeBackfillCert hands a certificate from the notification loop to its
// backfill driver; certificates of finished or abandoned backfills are
// dropped.
func (s *Server) routeBackfillCert(cert *core.BackfillCert) {
	s.bfMu.Lock()
	ch := s.bfCerts[cert.BackfillID]
	s.bfMu.Unlock()
	if ch == nil {
		return
	}
	select {
	case ch <- cert:
	default: // driver lagging; the chunk timeout re-sends
	}
}

// restartBackfills tells every backfill driver that node's heartbeat showed a
// restart: cells there lost their window state, certificates they owed will
// never arrive, and a backfill installing there must start over.
func (s *Server) restartBackfills(node string) {
	s.bfMu.Lock()
	defer s.bfMu.Unlock()
	for bfid, ch := range s.bfCerts {
		select {
		case ch <- &core.BackfillCert{BackfillID: bfid, Chunk: -1, Origin: node, Status: core.BackfillStatusRestart}:
		default: // driver lagging; its chunks time out uncertified instead
		}
	}
}

func (s *Server) publishBackfillStart(sub *Subscription, bfid string, epoch uint64) error {
	return s.publishEnvelope(s.topics.Queries(), &core.Envelope{Kind: core.KindBackfillStart, BackfillStart: &core.BackfillStart{
		Tenant:         s.opts.Tenant,
		SubscriptionID: sub.id,
		BackfillID:     bfid,
		Query:          sub.q.Spec(),
		Slack:          sub.slack,
		TTLMillis:      s.opts.TTL.Milliseconds(),
		Epoch:          epoch,
	}})
}

func (s *Server) publishBackfillMark(bfid string, chunk int, phase string, seq uint64) error {
	return s.publishEnvelope(s.topics.Writes(), &core.Envelope{Kind: core.KindBackfillMark, BackfillMark: &core.BackfillMark{
		Tenant:     s.opts.Tenant,
		BackfillID: bfid,
		Chunk:      chunk,
		Phase:      phase,
		Seq:        seq,
	}})
}

func (s *Server) publishEnvelope(topic string, env *core.Envelope) error {
	data, err := env.Encode()
	if err != nil {
		return err
	}
	return s.bus.Publish(topic, data)
}
