package core

import (
	"fmt"
	"sync"
	"time"
)

// This file is the control-plane half of the multi-process matching grid
// (DESIGN.md §13). A coordinator process owns the assignment of global grid
// rows (query partitions) to server processes and publishes it as a
// PartitionMap on the retained control topic; every cluster process installs
// the map and routes by it. An unnamed process is the degenerate case: an
// identity map at epoch 0 assigning every row of its own grid to itself, so
// there is exactly one routing code path.

// RowAssignment places one global query-partition row on a node: the owning
// process (empty = the local, unnamed process) and the
// local slot index the row occupies inside that process's grid.
type RowAssignment struct {
	Node string
	Slot int
}

// PartitionMap is one epoch of the grid's routing state: the grid
// dimensions and the owner of every query-partition row. Epochs are
// strictly increasing; control messages stamped with an epoch are resolved
// against the map that was current at that epoch, so a resize never
// misroutes in-flight requests.
type PartitionMap struct {
	Epoch           uint64
	QueryPartitions int
	WritePartitions int
	Rows            []RowAssignment
}

// validate enforces the structural invariants of a map on the wire: at
// least one row, one row assignment per query partition, a positive write
// partition count, and slots that are non-negative.
func (m *PartitionMap) validate() error {
	if m.QueryPartitions < 1 || m.WritePartitions < 1 {
		return fmt.Errorf("core: partition map with %d x %d grid", m.QueryPartitions, m.WritePartitions)
	}
	if len(m.Rows) != m.QueryPartitions {
		return fmt.Errorf("core: partition map with %d rows for %d query partitions", len(m.Rows), m.QueryPartitions)
	}
	for i := range m.Rows {
		if m.Rows[i].Slot < 0 {
			return fmt.Errorf("core: partition map row %d with negative slot", i)
		}
	}
	return nil
}

// Clone returns a deep copy (the Rows slice is the only reference field).
func (m *PartitionMap) Clone() *PartitionMap {
	cp := *m
	cp.Rows = append([]RowAssignment(nil), m.Rows...)
	return &cp
}

// IdentityMap is an unnamed process's routing state: every row of its QP x
// WP grid is owned by the local process (node "") at slot = row, epoch 0.
func IdentityMap(qp, wp int) *PartitionMap {
	rows := make([]RowAssignment, qp)
	for i := range rows {
		rows[i].Slot = i
	}
	return &PartitionMap{QueryPartitions: qp, WritePartitions: wp, Rows: rows}
}

// Row returns the global query-partition row a query hash lands on under
// this map.
func (m *PartitionMap) Row(hash uint64) int {
	return int(hash % uint64(m.QueryPartitions))
}

// gridLayout is a cluster process's fixed local grid geometry: rows local
// match-task rows (slots) by cols columns, task = row*cols + col. The
// column capacity is baked at construction — deliberately: cached cell
// coordinates must survive a write-partition resize, which is exactly the
// stale-capture bug the old opts.WritePartitions-based gridCell/gridTask
// pair had. A map's WritePartitions may use any prefix of the columns;
// columns at or beyond it are simply idle.
type gridLayout struct {
	rows, cols int
}

func (l gridLayout) task(row, col int) int { return row*l.cols + col }

func (l gridLayout) cell(task int) (row, col int) { return task / l.cols, task % l.cols }

func (l gridLayout) tasks() int { return l.rows * l.cols }

// GridCell is the placement metadata a matching task receives through the
// topology's TaskMeta hook: its local row (slot) and column in the
// process-local grid. Tasks translate these to global coordinates through
// the installed partition map, never from opts.WritePartitions — the
// dimensions in the map change across resizes, the cell does not.
type GridCell struct {
	Row, Col int
}

// rowSlot pairs a global query-partition row with the local slot it
// occupies on this node.
type rowSlot struct {
	row, slot int
}

// routing is one installed PartitionMap plus the node-local projections the
// hot paths need: the slot of every row owned by this process (-1 when the
// row lives elsewhere) and the owned rows as a dense list for the
// write-ingest fan-out.
type routing struct {
	m     *PartitionMap
	slots []int     // global row -> local slot, -1 if not owned here
	owned []rowSlot // owned rows, ascending by row
}

func newRouting(m *PartitionMap, nodeID string) *routing {
	r := &routing{m: m, slots: make([]int, len(m.Rows))}
	for row := range m.Rows {
		if m.Rows[row].Node == nodeID {
			r.slots[row] = m.Rows[row].Slot
			r.owned = append(r.owned, rowSlot{row: row, slot: m.Rows[row].Slot})
		} else {
			r.slots[row] = -1
		}
	}
	return r
}

// ownedSlot returns the local slot of a global row, or -1 when another
// process owns it.
func (r *routing) ownedSlot(row int) int {
	if row < 0 || row >= len(r.slots) {
		return -1
	}
	return r.slots[row]
}

// mapState holds the cluster's current and previous routing epochs. Two
// epochs suffice: a resize completes (all migrations cut over and cancel the
// old installs) before the next begins, and requests stamped with an epoch
// older than prev fall back to cur, landing best-effort. A lease refreshes
// only the cells that own a subscription's row under cur or prev, so an
// install on any other cell lapses with its TTL; an old install whose cancel
// was lost stays leased until the next resize demotes prev.
type mapState struct {
	mu   sync.RWMutex
	cur  *routing
	prev *routing
	// installed is closed by the next install; at makes it when it has to
	// wait for one.
	installed chan struct{}
}

// install adopts a map with a higher epoch than the current one, demoting
// the current map to prev. Re-publications of the current epoch and stale
// epochs are ignored. Returns whether the map was adopted.
func (s *mapState) install(m *PartitionMap, nodeID string) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur != nil && m.Epoch <= s.cur.m.Epoch {
		return false
	}
	s.prev = s.cur
	s.cur = newRouting(m, nodeID)
	if s.installed != nil {
		close(s.installed)
		s.installed = nil
	}
	return true
}

// current returns the current routing (nil before the first map arrives —
// a named process routes nothing until the coordinator places it).
func (s *mapState) current() *routing {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur
}

// both returns the current and previous routing. The previous epoch keeps
// receiving writes during a migration so the old owner's cells stay live
// until the client cuts over.
func (s *mapState) both() (cur, prev *routing) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.cur, s.prev
}

// futureEpochWait bounds how long a request stamped with an epoch this
// process has not installed yet waits for the control topic to deliver it.
const futureEpochWait = 500 * time.Millisecond

// at resolves a stamped epoch to the routing that was current then: 0 (an
// unstamped legacy message) and the current epoch resolve to cur, the
// previous epoch to prev. A newer epoch than cur means the sender already
// routes by a map this process is about to receive — the map and the request
// travel different topics — so the request waits for the install (at most
// futureEpochWait): resolved under the stale map, an install would land on
// the old columns only and the row's new cells would never see the query.
// Anything else resolves best-effort to cur — a misrouted install is
// reclaimed by the TTL sweep, and client-side per-origin dedup guards absorb
// any duplicate notifications.
func (s *mapState) at(epoch uint64) *routing {
	var timeout <-chan time.Time
	for {
		s.mu.Lock()
		cur, prev := s.cur, s.prev
		if cur == nil || epoch <= cur.m.Epoch {
			s.mu.Unlock()
			if prev != nil && epoch == prev.m.Epoch {
				return prev
			}
			return cur
		}
		if s.installed == nil {
			s.installed = make(chan struct{})
		}
		installed := s.installed
		s.mu.Unlock()
		if timeout == nil {
			t := time.NewTimer(futureEpochWait)
			defer t.Stop()
			timeout = t.C
		}
		select {
		case <-installed:
		case <-timeout:
			return cur
		}
	}
}
