package appserver

import "invalidb/internal/core"

// This file is the application-server side of a live grid resize (DESIGN.md
// §13). The coordinator publishes partition maps on the retained control
// topic; the server tracks the newest epoch, stamps it on every control
// envelope it publishes, and when a map moves a subscription's query row to
// a different process — or changes the write-partition count, which reshapes
// the row's columns — the re-subscription pass re-installs the subscription
// under the new placement (reinstall), exactly as it repairs one a restarted
// cell lost. The old install is cancelled stamped with the OLD epoch, so the
// teardown cannot touch the new install.

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

// moved reports whether moving from p to np requires a re-install: np comes
// from a map, and the row changed hands (node or slot), the row's column
// count changed, or the old placement was never known.
func (p placement) moved(np placement) bool {
	return np.known && (!p.known || p.node != np.node || p.slot != np.slot || p.wp != np.wp)
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

// handleMap adopts a coordinator map (newer epochs only) and starts a
// re-subscription pass over the subscriptions it moved. Runs on the
// notification loop, so it must not block.
func (s *Server) handleMap(m *core.PartitionMap) {
	s.pmMu.Lock()
	if s.pmap != nil && m.Epoch <= s.pmap.Epoch {
		s.pmMu.Unlock()
		return
	}
	s.pmap = m
	s.pmMu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.resubscribe(placement.moved)
	}()
}
