package appserver

import (
	"fmt"

	"invalidb/internal/core"
)

// This file is the application-server side of a live grid resize (DESIGN.md
// §13). The coordinator publishes partition maps on the retained control
// topic; the server tracks the newest epoch, stamps it on every control
// envelope it publishes, and when a map moves a subscription's query row to
// a different process — or changes the write-partition count, which reshapes
// the row's columns — it migrates the subscription: the new owner is
// installed first (through a watermark-certified migration backfill for
// unsorted backfill-enabled subscriptions, through a fresh bootstrap
// subscribe otherwise), and only then is the old install cancelled, stamped
// with the OLD epoch so the teardown cannot touch the new install. Clients
// see no gap: while both owners notify, the per-key version guard and the
// per-origin sequence dedup swallow the overlap's duplicates.

// placement records where one subscription's query row lived when the
// subscription was last installed: the owning node and process-local slot
// under a map epoch, plus the write-partition count that shaped the row.
// known stays false until the first partition map arrives; static
// single-process clusters never set it and every envelope carries epoch
// zero ("current").
type placement struct {
	epoch uint64
	node  string
	slot  int
	wp    int
	known bool
}

// placeFor computes the placement of a query hash under a map.
func placeFor(m *core.PartitionMap, hash uint64) placement {
	ra := m.Rows[m.Row(hash)]
	//invalidb:allow epochcapture placement deliberately records install-time wp so moved() can detect reshapes against it
	return placement{epoch: m.Epoch, node: ra.Node, slot: ra.Slot, wp: m.WritePartitions, known: true}
}

// moved reports whether moving from p to np requires a re-install: the row
// changed hands (node or slot), the row's column count changed, or the old
// placement was never known.
func (p placement) moved(np placement) bool {
	return !p.known || p.node != np.node || p.slot != np.slot || p.wp != np.wp
}

// sameOwner reports whether both placements name the same process-local
// row, in which case a Cancel addressed to the old install would destroy
// the new one and must be skipped.
func (p placement) sameOwner(np placement) bool {
	return p.known && p.node == np.node && p.slot == np.slot
}

// on reports whether the placement is on the named cluster node, or unknown:
// a static cluster is one node with every query on it.
func (p placement) on(node string) bool { return !p.known || p.node == node }

// currentMap returns the newest partition map received on the control
// topic, nil before the first one (static clusters stay nil forever).
func (s *Server) currentMap() *core.PartitionMap {
	s.pmMu.Lock()
	defer s.pmMu.Unlock()
	return s.pmap
}

// currentEpoch is the epoch stamped on envelopes not tied to one
// subscription's install (TTL extends).
func (s *Server) currentEpoch() uint64 {
	s.pmMu.Lock()
	defer s.pmMu.Unlock()
	if s.pmap == nil {
		return 0
	}
	return s.pmap.Epoch
}

// handleMap adopts a coordinator map (newer epochs only) and kicks the
// migration loop. Runs on the notification loop, so it must not block.
func (s *Server) handleMap(m *core.PartitionMap) {
	s.pmMu.Lock()
	if s.pmap != nil && m.Epoch <= s.pmap.Epoch {
		s.pmMu.Unlock()
		return
	}
	s.pmap = m
	s.pmMu.Unlock()
	select {
	case s.mapKick <- struct{}{}:
	default: // a sweep is already pending; it reads the newest map
	}
}

// migrationLoop serializes placement sweeps so two map epochs arriving in
// quick succession cannot migrate the same subscription concurrently.
func (s *Server) migrationLoop() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.mapKick:
			s.migrateAll()
		}
	}
}

// migrateAll re-places every subscription under the newest map.
func (s *Server) migrateAll() {
	m := s.currentMap()
	if m == nil {
		return
	}
	for _, sub := range s.snapshotSubs() {
		sub.mu.Lock()
		closed, backfilling := sub.closed, sub.backfilling
		old := sub.place
		sub.mu.Unlock()
		if closed {
			continue
		}
		if backfilling {
			// The initial backfill is still assembling the result; its
			// driver re-checks placement at admission and migrates then.
			continue
		}
		np := placeFor(m, sub.hash)
		if !old.moved(np) {
			// Owner unchanged: adopt the epoch, nothing to move.
			sub.setPlace(np)
			continue
		}
		s.migrateSub(sub, old, np)
	}
}

// migrateSub re-installs one subscription under a new placement and tears
// down the old install.
//
// Unsorted subscriptions with backfill enabled migrate through the
// watermark-certified backfill: only the window bracketing each chunk read
// is replayed on the new owner, the old owner keeps notifying until the
// cutover, and the overlap's duplicates are dropped by the per-key version
// guard. Everything else (ordered queries, monolithic bootstrap) migrates
// renewal-style with a fresh bootstrap subscribe; ordered windows cannot
// compose diffs from two origins at once, so there the old install is torn
// down before the new one is published and the fresh result covers the gap.
func (s *Server) migrateSub(sub *Subscription, old, np placement) {
	s.mMigrations.Inc()
	if s.opts.Backfill && !sub.ordered {
		err := s.runBackfill(sub, np, true)
		if err == nil {
			sub.setPlace(np)
			if old.known && !old.sameOwner(np) {
				s.cancelAt(sub, old.epoch)
			}
			return
		}
		if err == errBackfillAborted {
			return
		}
		// Fall through to the bootstrap path: a failed migration backfill
		// (e.g. the new owner restarted mid-migration) still needs the row
		// installed somewhere.
	}
	if sub.ordered && old.known && !old.sameOwner(np) {
		s.cancelAt(sub, old.epoch)
	}
	sub.mu.Lock()
	slack := sub.slack
	sub.mu.Unlock()
	entries, err := s.bootstrapResult(sub.q, slack)
	if err != nil {
		sub.fail(fmt.Errorf("appserver: migration failed: %w", err))
		return
	}
	sub.setPlace(np)
	if err := s.publishSubscribe(sub, entries); err != nil {
		sub.fail(fmt.Errorf("appserver: migration failed: %w", err))
		return
	}
	if !sub.ordered && old.known && !old.sameOwner(np) {
		s.cancelAt(sub, old.epoch)
	}
}
