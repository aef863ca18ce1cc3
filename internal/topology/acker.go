package topology

import (
	"sync"
	"time"
)

// acker implements Storm's XOR-ledger acknowledgement protocol. Every root
// tuple owns a ledger; each delivered tuple copy XORs its edge id into the
// ledger on send and again on ack, so the ledger returns to zero exactly
// when every tuple in the tree has been acked. A sweep goroutine fails
// ledgers that outlive the ack timeout, triggering spout replay.
type acker struct {
	timeout time.Duration

	mu      sync.Mutex
	ledgers map[uint64]*ledger
}

type ledger struct {
	val      uint64
	spout    *task
	sealed   bool // spoutEmit finished fanning out the root tuple
	deadline time.Time
}

func newAcker(timeout time.Duration) *acker {
	return &acker{timeout: timeout, ledgers: map[uint64]*ledger{}}
}

func (a *acker) start(wg *sync.WaitGroup, stopped <-chan struct{}) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		sweep := a.timeout / 4
		if sweep < time.Millisecond {
			sweep = time.Millisecond
		}
		ticker := time.NewTicker(sweep)
		defer ticker.Stop()
		for {
			select {
			case <-stopped:
				return
			case now := <-ticker.C:
				a.expire(now)
			}
		}
	}()
}

// register opens a ledger for a new root tuple.
func (a *acker) register(root uint64, spout *task) {
	a.mu.Lock()
	a.ledgers[root] = &ledger{spout: spout, deadline: time.Now().Add(a.timeout)}
	a.mu.Unlock()
}

// update XORs an edge id into the ledger; a sealed ledger reaching zero
// completes the tree.
func (a *acker) update(root, edge uint64) {
	a.mu.Lock()
	l, ok := a.ledgers[root]
	if !ok {
		a.mu.Unlock()
		return
	}
	l.val ^= edge
	done := l.sealed && l.val == 0
	if done {
		delete(a.ledgers, root)
	}
	a.mu.Unlock()
	if done {
		a.complete(root, l, true)
	}
}

// seal marks the root tuple's initial fan-out as finished. Sealing late
// prevents a fast consumer from zeroing the ledger while the spout is still
// delivering copies to other subscribers.
func (a *acker) seal(root uint64) {
	a.mu.Lock()
	l, ok := a.ledgers[root]
	if !ok {
		a.mu.Unlock()
		return
	}
	l.sealed = true
	done := l.val == 0
	if done {
		delete(a.ledgers, root)
	}
	a.mu.Unlock()
	if done {
		a.complete(root, l, true)
	}
}

// fail aborts a tree immediately.
func (a *acker) fail(root uint64) {
	a.mu.Lock()
	l, ok := a.ledgers[root]
	if ok {
		delete(a.ledgers, root)
	}
	a.mu.Unlock()
	if ok {
		a.complete(root, l, false)
	}
}

func (a *acker) expire(now time.Time) {
	a.mu.Lock()
	var expired []uint64
	var ls []*ledger
	var orphaned []*ledger
	for root, l := range a.ledgers {
		if l.spout.isHalted() {
			// The owning spout task stopped for good: replaying into its
			// never-drained completion queue would be a wasted (or
			// blocking) send, so the ledger is simply deleted. Sealed or
			// not — a halted spout can never seal it either.
			delete(a.ledgers, root)
			orphaned = append(orphaned, l)
			continue
		}
		if l.sealed && now.After(l.deadline) {
			expired = append(expired, root)
			ls = append(ls, l)
		}
	}
	for _, root := range expired {
		delete(a.ledgers, root)
	}
	a.mu.Unlock()
	for _, l := range orphaned {
		l.spout.releasePending()
	}
	for i, root := range expired {
		a.complete(root, ls[i], false)
	}
}

// complete releases the spout's max-pending slot immediately (so the spout
// can make progress even while its goroutine is busy), queues the verdict
// for delivery on the spout's task goroutine and unparks that goroutine. The
// wake token is posted after the verdict, so a spout that consumes the token
// always finds the verdict queued; a token left over from an already drained
// verdict costs one empty pass of the drive loop.
func (a *acker) complete(root uint64, l *ledger, ok bool) {
	l.spout.releasePending()
	select {
	case l.spout.completions <- completion{id: MsgID(root), ok: ok}:
		select {
		case l.spout.wake <- struct{}{}:
		default:
		}
	case <-l.spout.haltedCh: // spout task is gone; drop the verdict
	case <-l.spout.comp.top.stopped:
	}
}

// pendingCount reports open ledgers (for tests and stats).
func (a *acker) pendingCount() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.ledgers)
}
