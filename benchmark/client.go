package main

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// Phases of a run. Setup is driven by counts, the rest by the clock: one
// warm-up, then maxCycles cycles, each a steady, an admission and a peak
// phase. Every metric is computed per cycle and reported as the median over
// cycles, so that one cycle hit by a collection storm or a noisy neighbour
// does not set the run's number.
const (
	phSetup = iota
	phWarm
	phCycles // first cycle's steady phase
)

// Kinds of phase within a cycle.
const (
	kSteady = iota // open-loop writes: notify_*, write_ack_*, cpu_ms_per_write
	kAdmit         // the same writes plus the subscribe→verify→cancel stream: subscribe_*
	kPeak          // closed loop: peak_ops_per_s
	kinds
)

const (
	maxCycles = 3
	numPhases = phCycles + maxCycles*kinds
)

func phaseOf(cycle, kind int) int { return phCycles + cycle*kinds + kind }

// kindOf returns a cycle phase's kind, or -1 for setup and warm-up.
func kindOf(phase int) int {
	if phase < phCycles {
		return -1
	}
	return (phase - phCycles) % kinds
}

func phaseName(phase int) string {
	switch {
	case phase == phSetup:
		return "setup"
	case phase == phWarm:
		return "warm-up"
	}
	return fmt.Sprintf("%s %d", [kinds]string{"steady", "admission", "peak"}[kindOf(phase)], (phase-phCycles)/kinds+1)
}

// opRec tracks one write from send to the last event frame it owes. The
// generator fills the plain fields and then stores due; a reader that loads
// a non-zero due may read them.
type opRec struct {
	due     atomic.Int64 // ns since run start the op was scheduled for
	pending atomic.Int32 // event frames still owed, plus ackBit until the ack
	// firstNotify is when the first event frame carrying the write was
	// read; the traced run's last span ends there.
	firstNotify atomic.Int64
	phase       uint8
	conn        uint8
}

// ackBit marks a write whose ack is outstanding; the low bits of
// opRec.pending count the event frames it is still owed. One word, so that
// exactly one credit observes zero and completes the op.
const ackBit = 1 << 20

// opTable is indexed by write seq. Chunks are published with an atomic
// pointer so readers on other connections never take a lock.
type opTable struct {
	chunks [1 << 10]atomic.Pointer[[1 << 12]opRec]
}

func (t *opTable) get(seq int32) *opRec {
	c := &t.chunks[seq>>12]
	p := c.Load()
	if p == nil {
		c.CompareAndSwap(nil, new([1 << 12]opRec))
		p = c.Load()
	}
	return &p[seq&(1<<12-1)]
}

// subState is the client-side copy of one standing subscription's result,
// rebuilt from nothing but the frames the gateway sent. Only the reader of
// the subscription's connection touches it until the run has stopped.
type subState struct {
	live   bool
	sorted bool
	set    map[int32]int32 // unsorted: document → version token
	order  []docRef        // sorted: the visible window in result order
}

// trickleRec is a subscribe of the subscribe→verify→cancel stream awaiting
// its initial result.
type trickleRec struct {
	due    int64
	phase  uint8
	count  int
	digest uint64
	sorted bool
}

// phaseSamples holds one connection's raw timings for one phase (ns).
type phaseSamples struct {
	notify, ack, sub, lag []int64
	writes                int64
}

// cconn is one client connection: a socket, the generator goroutine that is
// its only writer while the run is live, and the reader goroutine.
type cconn struct {
	r   *run
	idx int
	nc  net.Conn
	gen *gen

	inflightWrites atomic.Int32
	inflightSubs   atomic.Int32
	wake           chan struct{} // capacity 1: a coalescing doorbell
	lastFrame      atomic.Int64

	mu       sync.Mutex
	trickles map[int]*trickleRec
	cancels  []int

	samples [numPhases]phaseSamples // notify/ack/sub: reader; lag/writes: generator

	// Reader-owned counters.
	deliveries, deliveryBytes int64
	results                   chan []docRef // pull-query answers for the oracle
	canary                    chan struct{}
	readErr                   error
	done                      chan struct{}
}

func (c *cconn) ring() {
	select {
	case c.wake <- struct{}{}:
	default:
	}
}

func (c *cconn) send(b []byte) {
	if _, err := c.nc.Write(b); err != nil {
		c.r.abort(fmt.Errorf("conn %d: write: %w", c.idx, err))
	}
}

// ---- generator side ------------------------------------------------------

// sendWrite issues the connection's next write, due at the given time.
func (c *cconn) sendWrite(phase int, due int64, build func(seq int32) int) {
	seq := c.r.seq.Add(1)
	rec := c.r.ops.get(seq)
	expect := build(seq)
	rec.phase, rec.conn = uint8(phase), uint8(c.idx)
	rec.pending.Store(int32(ackBit + expect))
	rec.due.Store(due)
	c.inflightWrites.Add(1)
	c.samples[phase].writes++
	c.send(c.gen.buf)
}

func (c *cconn) sendTrickle(phase int, due int64) {
	id := c.idx + c.r.nconns*c.gen.nsub
	count, dig, sorted := c.gen.trickleOp(id)
	c.mu.Lock()
	c.trickles[id] = &trickleRec{due: due, phase: uint8(phase), count: count, digest: dig, sorted: sorted}
	c.mu.Unlock()
	c.inflightSubs.Add(1)
	c.r.subsSent.Add(1)
	c.send(c.gen.buf)
}

func (c *cconn) sendCancels() {
	c.mu.Lock()
	ids := c.cancels
	c.cancels = nil
	c.mu.Unlock()
	for _, id := range ids {
		b := append(c.gen.buf[:0], `{"op":"unsubscribe","id":"c`...)
		b = strconv.AppendInt(b, int64(id), 10)
		b = append(b, "\"}\n"...)
		c.gen.buf = b
		c.send(b)
	}
}

// closedLoop sends count operations keeping at most window of them
// incomplete; setup runs on it.
func (c *cconn) closedLoop(count, window int, inflight *atomic.Int32, send func(k int)) {
	for k := 0; k < count && !c.r.aborted(); {
		if int(inflight.Load()) < window {
			send(k)
			k++
			continue
		}
		select {
		case <-c.wake:
		case <-time.After(50 * time.Millisecond):
		}
	}
	for inflight.Load() > 0 && !c.r.aborted() {
		select {
		case <-c.wake:
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// timed drives one clocked phase. Open-loop streams send on their schedule
// whatever the system does and stamp each op with the time it was due;
// closed-loop streams refill a bounded window as completions arrive.
func (c *cconn) timed(phase int, cfg phaseCfg) {
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	defer timer.Stop()
	n := int64(c.r.nconns)
	var writeIv, subIv int64
	if cfg.writeRate > 0 {
		writeIv = int64(float64(n) * 1e9 / cfg.writeRate)
	}
	if cfg.subRate > 0 {
		subIv = int64(float64(n) * 1e9 / cfg.subRate)
	}
	// Connections interleave: conn i sends i/n of an interval after conn 0.
	nextW := cfg.start + writeIv*int64(c.idx)/n
	nextS := cfg.start + subIv*int64(c.idx)/n + subIv/2
	sp := &c.samples[phase]
	for !c.r.aborted() {
		now := c.r.now()
		if now >= cfg.end {
			return
		}
		c.sendCancels()
		did := false
		switch {
		case writeIv > 0 && nextW <= now:
			sp.lag = append(sp.lag, now-nextW)
			c.sendWrite(phase, nextW, c.gen.nextWrite)
			nextW += writeIv
			did = true
		case cfg.writeWindow > 0 && int(c.inflightWrites.Load()) < cfg.writeWindow:
			c.sendWrite(phase, now, c.gen.nextWrite)
			did = true
		}
		switch {
		case subIv > 0 && nextS <= now:
			c.sendTrickle(phase, nextS)
			nextS += subIv
			did = true
		case cfg.subWindow > 0 && int(c.inflightSubs.Load()) < cfg.subWindow:
			c.sendTrickle(phase, now)
			did = true
		}
		if did {
			continue
		}
		wait := cfg.end
		if writeIv > 0 && nextW < wait {
			wait = nextW
		}
		if subIv > 0 && nextS < wait {
			wait = nextS
		}
		if cfg.writeWindow == 0 && cfg.subWindow == 0 {
			// Open loop: nothing but the schedule can make work. A Go
			// timer fires up to a millisecond late on an idle process (the
			// runtime parks in epoll_wait, whose timeout counts whole
			// milliseconds), which would put half a millisecond of the
			// generator's own lateness into every latency; the kernel's
			// nanosleep wakes within tens of microseconds.
			ts := syscall.NsecToTimespec(wait - now)
			_ = syscall.Nanosleep(&ts, nil) // an early return only re-enters the loop
			continue
		}
		timer.Reset(time.Duration(wait - now))
		select {
		case <-timer.C:
		case <-c.wake:
			if !timer.Stop() {
				<-timer.C
			}
		}
	}
}

// ---- reader side ----------------------------------------------------------

func (c *cconn) readLoop() {
	defer close(c.done)
	lr := newLineReader(c.nc)
	var f frame
	for {
		line, err := lr.next()
		if err != nil {
			c.readErr = err
			return
		}
		now := c.r.now()
		c.lastFrame.Store(now)
		if err := parseFrame(line, &f); err != nil {
			c.r.fail("conn %d: %v", c.idx, err)
			continue
		}
		if len(f.id) == 0 && string(f.op) != "resync" {
			c.r.fail("conn %d: frame without id: %.80q", c.idx, line)
			continue
		}
		switch string(f.op) {
		case "event":
			switch f.id[0] {
			case 's':
				c.deliveries++
				c.deliveryBytes += int64(len(line) + 1)
				c.standingEvent(int(digits(f.id[1:])), &f, now)
			case 'c':
				c.trickleEvent(int(digits(f.id[1:])), &f, now)
			case 'y':
				if string(f.typ) == "add" {
					select {
					case c.canary <- struct{}{}:
					default:
					}
				}
			}
		case "ok":
			if f.id[0] == 'w' {
				c.ack(digits(f.id[1:]), now)
			}
		case "result":
			c.results <- append([]docRef(nil), f.docs...)
		case "error":
			c.r.fail("conn %d: error frame id=%s: %s", c.idx, f.id, f.msg)
			switch f.id[0] {
			case 'w':
				// Release the op so a closed loop does not stall on it.
				if rec := c.r.ops.get(digits(f.id[1:])); rec.due.Load() != 0 {
					rec.pending.Store(0)
					c.r.complete(rec, now)
				}
			case 's':
				c.inflightSubs.Add(-1)
				c.ring()
			case 'c':
				c.mu.Lock()
				delete(c.trickles, int(digits(f.id[1:])))
				c.mu.Unlock()
				c.inflightSubs.Add(-1)
				c.ring()
			}
		case "resync":
			// The gateway shed events on this connection: each is a lost
			// notification, and the marker itself is counted.
			c.r.fail("conn %d: resync after %d shed events", c.idx, f.dropped)
		default:
			c.r.fail("conn %d: unknown frame op %q", c.idx, f.op)
		}
	}
}

func (c *cconn) ack(seq int32, now int64) {
	rec := c.r.ops.get(seq)
	due := rec.due.Load()
	if seq < 0 || due == 0 {
		c.r.fail("conn %d: ack for unknown write %d", c.idx, seq)
		return
	}
	sp := &c.samples[rec.phase]
	sp.ack = append(sp.ack, now-due)
	switch v := rec.pending.Add(-ackBit); {
	case v == 0:
		c.r.complete(rec, now)
	case v < 0:
		rec.pending.Add(ackBit)
		c.r.fail("conn %d: write %d acked twice", c.idx, seq)
	}
}

func (c *cconn) trickleEvent(id int, f *frame, now int64) {
	if string(f.typ) != "initial" {
		return // live events between admission and cancel are not checked
	}
	c.mu.Lock()
	t := c.trickles[id]
	delete(c.trickles, id)
	if t != nil {
		c.cancels = append(c.cancels, id)
	}
	c.mu.Unlock()
	if t == nil {
		c.r.fail("conn %d: initial result for unknown subscribe c%d", c.idx, id)
		return
	}
	if len(f.docs) != t.count || digest(f.docs, t.sorted) != t.digest {
		c.r.fail("conn %d: subscribe c%d: initial result has %d docs, differs from the model's %d", c.idx, id, len(f.docs), t.count)
	} else {
		sp := &c.samples[t.phase]
		sp.sub = append(sp.sub, now-t.due)
		if now <= c.r.cfg[t.phase].end {
			c.r.admits[t.phase].Add(1)
		}
	}
	c.r.subsDone.Add(1)
	c.inflightSubs.Add(-1)
	c.ring()
}

// standingEvent folds one event frame into the subscription's client-side
// result, checking the stream is well-formed as it goes, and credits the
// write the frame notifies.
func (c *cconn) standingEvent(sub int, f *frame, now int64) {
	if sub < 0 || sub >= len(c.r.subs) {
		c.r.fail("conn %d: event for unknown subscription %s", c.idx, f.id)
		return
	}
	st := &c.r.subs[sub]
	typ := string(f.typ)
	if typ == "initial" {
		if st.live {
			c.r.fail("sub s%d: second initial result", sub)
			return
		}
		st.live = true
		if st.sorted {
			st.order = append(st.order[:0], f.docs...)
		} else if len(f.docs) > 0 {
			st.set = make(map[int32]int32, len(f.docs))
			for _, d := range f.docs {
				st.set[d.no] = d.w
			}
		}
		c.inflightSubs.Add(-1)
		c.ring()
		return
	}
	if !st.live {
		c.r.fail("sub s%d: %s before the initial result", sub, typ)
		return
	}
	no := docNo(f.key)
	if no < 0 {
		c.r.fail("sub s%d: %s with foreign key %q", sub, typ, f.key)
		return
	}
	switch typ {
	case "add", "change", "changeIndex":
		if !f.hasDoc || f.doc.no != no || f.doc.w < 0 {
			c.r.fail("sub s%d: %s of %s without its document", sub, typ, f.key)
			return
		}
	case "remove":
	default:
		c.r.fail("sub s%d: unexpected %s event: %s", sub, typ, f.msg)
		return
	}
	fresh := true
	if st.sorted {
		fresh = c.applySorted(sub, st, typ, no, f)
	} else {
		fresh = c.applySet(sub, st, typ, no, f)
	}
	if typ == "remove" || !fresh {
		return
	}
	rec := c.r.ops.get(f.doc.w)
	due := rec.due.Load()
	if due == 0 {
		c.r.fail("sub s%d: %s carries unknown write token %d", sub, typ, f.doc.w)
		return
	}
	if !c.r.creditEvent(rec, now) {
		c.r.fail("sub s%d: %s of %s notifies write %d more often than it hit", sub, typ, f.key, f.doc.w)
		return
	}
	rec.firstNotify.CompareAndSwap(0, now)
	sp := &c.samples[rec.phase]
	sp.notify = append(sp.notify, now-due)
}

// applySet maintains an unsorted result. It reports whether the frame is
// the first to show this version of the document.
func (c *cconn) applySet(sub int, st *subState, typ string, no int32, f *frame) bool {
	old, present := st.set[no]
	switch typ {
	case "add":
		if present {
			c.r.fail("sub s%d: add of %s, already in the result (duplicate=%v)", sub, f.key, old == f.doc.w)
			return false
		}
		if st.set == nil {
			st.set = map[int32]int32{}
		}
		st.set[no] = f.doc.w
	case "change", "changeIndex":
		if !present {
			c.r.fail("sub s%d: %s of %s before its add", sub, typ, f.key)
			return false
		}
		if old == f.doc.w {
			c.r.fail("sub s%d: %s of %s delivered twice", sub, typ, f.key)
			return false
		}
		st.set[no] = f.doc.w
	case "remove":
		if !present {
			c.r.fail("sub s%d: remove of %s before its add", sub, f.key)
			return false
		}
		delete(st.set, no)
	}
	return true
}

// applySorted maintains a sorted window the way the protocol prescribes:
// add and changeIndex place the key at the frame's index, change rewrites
// in place, remove drops the key.
func (c *cconn) applySorted(sub int, st *subState, typ string, no int32, f *frame) bool {
	at := -1
	for i, d := range st.order {
		if d.no == no {
			at = i
			break
		}
	}
	cut := func() { st.order = append(st.order[:at], st.order[at+1:]...) }
	place := func() bool {
		idx := f.index
		if idx < 0 || idx > len(st.order) {
			c.r.fail("sub s%d: %s of %s at index %d outside a window of %d", sub, typ, f.key, f.index, len(st.order))
			return false
		}
		st.order = append(st.order, docRef{})
		copy(st.order[idx+1:], st.order[idx:])
		st.order[idx] = f.doc
		return true
	}
	switch typ {
	case "add":
		if at >= 0 {
			c.r.fail("sub s%d: add of %s, already in the window", sub, f.key)
			return false
		}
		if !place() {
			return false
		}
	case "changeIndex":
		if at < 0 {
			c.r.fail("sub s%d: changeIndex of %s before its add", sub, f.key)
			return false
		}
		cut()
		if !place() {
			return false
		}
	case "change":
		if at < 0 {
			c.r.fail("sub s%d: change of %s before its add", sub, f.key)
			return false
		}
		if st.order[at].w == f.doc.w {
			c.r.fail("sub s%d: change of %s delivered twice", sub, f.key)
			return false
		}
		st.order[at] = f.doc
	case "remove":
		if at < 0 {
			c.r.fail("sub s%d: remove of %s before its add", sub, f.key)
			return false
		}
		cut()
	}
	return true
}
