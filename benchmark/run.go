package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// phaseCfg is the load of one clocked phase; start and end are ns since
// the run's epoch.
type phaseCfg struct {
	start, end  int64
	writeRate   float64
	subRate     float64
	writeWindow int
	subWindow   int
}

// plan is how long each clocked phase of a run lasts.
type plan struct {
	warm                time.Duration
	cycles              int
	steady, admit, peak time.Duration // per cycle
}

// planFor gives warm-up 5 % of the measured seconds and splits the rest
// into three cycles, each 45 : 20 : 35 between the open-loop steady phase,
// the admission phase and the closed-loop peak phase.
//
// Subscribes get a phase of their own because a gateway connection handles
// its frames in order: every write sent behind a subscribe waits out that
// subscribe's bootstrap scan. With the subscribe stream running through
// the steady phase, the share of writes so delayed sat right at 5 %, and
// notify_p95_ms and write_ack_p95_ms flipped between two values from run to
// run depending on which side of the 95th percentile it fell.
func planFor(seconds float64) plan {
	d := func(share float64) time.Duration { return time.Duration(seconds * share * float64(time.Second)) }
	cycle := 0.95 / maxCycles
	return plan{warm: d(0.05), cycles: maxCycles, steady: d(0.45 * cycle), admit: d(0.20 * cycle), peak: d(0.35 * cycle)}
}

// hooks are the traced run's taps on each cycle's steady phase.
type hooks struct {
	steadyStart func(cycle int)
	steadyEnd   func(cycle int)
}

// run is one stack lifetime: setup, the clocked phases, drain, oracle.
type run struct {
	wl     *workload
	nconns int
	st     *stack
	epoch  time.Time
	began  time.Time // when bootStack was entered, for setup_s

	ops   opTable
	seq   atomic.Int32
	conns []*cconn
	subs  []subState
	cfg   [numPhases]phaseCfg
	end   int64 // when the last clocked phase ends

	failures atomic.Int64
	failMu   sync.Mutex
	failMsgs []string
	abortMu  sync.Mutex
	abortErr error
	isAbort  atomic.Bool

	done     [numPhases]atomic.Int64 // writes completed inside the phase that sent them
	admits   [numPhases]atomic.Int64 // subscribes admitted inside the phase that sent them
	subsSent atomic.Int64
	subsDone atomic.Int64

	start    chan struct{} // closed when the clocked timeline is fixed
	stopGen  atomic.Bool
	genWG    sync.WaitGroup
	tornDown sync.Once

	// Measured by the main goroutine.
	setupS        float64
	cycles        int
	steady        [maxCycles]steadyMarks
	admitted      [maxCycles]map[string]float64 // the program's counters at the end of each admission phase
	queueMax      int
	ackerMax      float64
	oracleChecked int
}

// steadyMarks is what the main goroutine records around one steady phase.
type steadyMarks struct {
	before, after     map[string]float64 // the program's own counters
	goBefore, goAfter goSnapshot
	cpu               time.Duration
}

func (r *run) now() int64 { return int64(time.Since(r.epoch)) }

// fail records one failed operation. The first few are kept verbatim.
func (r *run) fail(format string, args ...any) {
	r.failures.Add(1)
	r.failMu.Lock()
	if len(r.failMsgs) < 20 {
		r.failMsgs = append(r.failMsgs, fmt.Sprintf(format, args...))
	}
	r.failMu.Unlock()
}

func (r *run) abort(err error) {
	r.abortMu.Lock()
	if r.abortErr == nil {
		r.abortErr = err
	}
	r.abortMu.Unlock()
	r.isAbort.Store(true)
}

func (r *run) aborted() bool { return r.isAbort.Load() }

func (r *run) abortCause() error {
	r.abortMu.Lock()
	defer r.abortMu.Unlock()
	return r.abortErr
}

// creditEvent credits one event frame to the write it carries, unless the
// write is owed none.
func (r *run) creditEvent(rec *opRec, now int64) bool {
	for {
		v := rec.pending.Load()
		if v&(ackBit-1) == 0 {
			return false
		}
		if rec.pending.CompareAndSwap(v, v-1) {
			if v == 1 {
				r.complete(rec, now)
			}
			return true
		}
	}
}

func (r *run) complete(rec *opRec, now int64) {
	owner := r.conns[rec.conn]
	owner.inflightWrites.Add(-1)
	owner.ring()
	if now <= r.cfg[rec.phase].end {
		r.done[rec.phase].Add(1)
	}
}

// loadConns is how many connections, and so generator goroutines, drive
// load: min(nproc, 4). More would let the generator outrun the cores the
// system under test has.
func loadConns() int {
	n := runtime.NumCPU()
	if n > 4 {
		n = 4
	}
	return n
}

// setUp boots the stack, connects, preloads and registers every standing
// subscription, returning once each holds its initial result.
func setUp(wl *workload, seed int64, tracer busTracer) (*run, error) {
	return setUpAt(wl, seed, tracer, time.Now())
}

// setUpAt is setUp with the run's clock origin given, so that a tracer
// created beforehand stamps on the same clock.
func setUpAt(wl *workload, seed int64, tracer busTracer, epoch time.Time) (*run, error) {
	r := &run{wl: wl, nconns: loadConns(), began: time.Now(), epoch: epoch, start: make(chan struct{})}
	st, err := bootStack(tracer)
	if err != nil {
		return nil, err
	}
	r.st = st
	r.subs = make([]subState, len(wl.queries)*wl.subsPerQuery)
	for i := range r.subs {
		r.subs[i].sorted = wl.queries[i/wl.subsPerQuery].sorted
	}
	for i := 0; i < r.nconns; i++ {
		nc, err := net.DialTimeout("tcp", st.gw.Addr(), 5*time.Second)
		if err != nil {
			r.tearDown()
			return nil, fmt.Errorf("dial gateway: %w", err)
		}
		// A reader descheduled for a few milliseconds must not push back on
		// the gateway, which sheds events once 64 KiB wait for the socket:
		// let the kernel hold what arrives meanwhile.
		_ = nc.(*net.TCPConn).SetReadBuffer(4 << 20) // best effort; the default only sheds sooner
		c := &cconn{
			r: r, idx: i, nc: nc, gen: newGen(wl, seed, i, r.nconns),
			wake:     make(chan struct{}, 1),
			trickles: map[int]*trickleRec{},
			results:  make(chan []docRef, 1),
			canary:   make(chan struct{}, 1),
			done:     make(chan struct{}),
		}
		r.conns = append(r.conns, c)
		go c.readLoop()
	}
	if err := r.awaitReady(); err != nil {
		r.tearDown()
		return nil, err
	}
	var preloaded, subscribed sync.WaitGroup
	preloaded.Add(r.nconns)
	subscribed.Add(r.nconns)
	r.genWG.Add(r.nconns)
	for _, c := range r.conns {
		go func(c *cconn) {
			defer r.genWG.Done()
			c.closedLoop(wl.preload/r.nconns, 64, &c.inflightWrites, func(k int) {
				c.sendWrite(phSetup, r.now(), func(seq int32) int {
					c.gen.preloadOp(k, seq)
					return 0 // nobody is subscribed yet
				})
			})
			// No connection subscribes while another still preloads, or the
			// preload would notify and the zero above would be wrong.
			preloaded.Done()
			preloaded.Wait()
			var mine []int
			for s := c.idx; s < len(r.subs); s += r.nconns {
				mine = append(mine, s)
			}
			// 256 keeps the subscribe requests in flight well inside the
			// event layer's 4096-message subscriber buffer.
			c.closedLoop(len(mine), 256, &c.inflightSubs, func(k int) {
				c.inflightSubs.Add(1)
				c.gen.subscribeOp(mine[k])
				c.send(c.gen.buf)
			})
			subscribed.Done()
			<-r.start
			// Phases in the order of their start times; a phase the plan
			// left out has no length and is skipped.
			order := make([]int, 0, numPhases)
			for ph := phWarm; ph < numPhases; ph++ {
				if r.cfg[ph].end > r.cfg[ph].start {
					order = append(order, ph)
				}
			}
			sort.Slice(order, func(i, j int) bool { return r.cfg[order[i]].start < r.cfg[order[j]].start })
			for _, ph := range order {
				c.timed(ph, r.cfg[ph])
			}
			// Keep cancelling trickle subscriptions admitted late.
			for !r.stopGen.Load() && !r.aborted() {
				c.sendCancels()
				select {
				case <-c.wake:
				case <-time.After(10 * time.Millisecond):
				}
			}
		}(c)
	}
	subscribed.Wait()
	r.setupS = time.Since(r.began).Seconds()
	if err := r.abortCause(); err != nil {
		r.tearDown()
		return nil, err
	}
	for i := range r.subs {
		if !r.subs[i].live {
			r.fail("sub s%d: no initial result during setup", i)
		}
	}
	return r, nil
}

// awaitReady proves the whole path — gateway, store, event layer, grid,
// application server and back — carries a notification before anything is
// timed: the cluster's event-layer subscription is registered
// asynchronously, and a subscribe published before it lands is lost.
func (r *run) awaitReady() error {
	c := r.conns[0]
	deadline := time.Now().Add(10 * time.Second)
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		c.send([]byte(fmt.Sprintf(`{"op":"subscribe","id":"y%d","query":{"collection":"canary","filter":{"c":%d}}}`+"\n", attempt, attempt)))
		for i := 0; i < 40; i++ {
			c.send([]byte(fmt.Sprintf(`{"op":"insert","id":"y","collection":"canary","doc":{"_id":"y%d-%d","c":%d}}`+"\n", attempt, i, attempt)))
			select {
			case <-c.canary:
				c.send([]byte(fmt.Sprintf(`{"op":"unsubscribe","id":"y%d"}`+"\n", attempt)))
				return nil
			case <-c.done:
				return fmt.Errorf("gateway closed the connection during start-up: %v", c.readErr)
			case <-time.After(5 * time.Millisecond):
			}
		}
		c.send([]byte(fmt.Sprintf(`{"op":"unsubscribe","id":"y%d"}`+"\n", attempt)))
	}
	return errors.New("stack did not deliver a notification within 10 s of start-up")
}

// tearDown stops generators, closes the client sockets and the stack, and
// returns once every goroutine of both has exited.
func (r *run) tearDown() { r.tornDown.Do(r.tearDownOnce) }

func (r *run) tearDownOnce() {
	r.stopGen.Store(true)
	r.isAbort.Store(true) // releases generators parked in closedLoop or timed
	select {
	case <-r.start:
	default:
		close(r.start)
	}
	r.genWG.Wait()
	for _, c := range r.conns {
		_ = c.nc.Close()
		<-c.done
	}
	r.st.close()
}

// execute runs the clocked phases, drains and checks. The run must have
// come from setUp.
func (r *run) execute(p plan, h hooks) error {
	wl := r.wl
	r.cycles = p.cycles
	t := r.now() + int64(20*time.Millisecond)
	span := func(ph int, d time.Duration, cfg phaseCfg) {
		cfg.start, cfg.end = t, t+int64(d)
		r.cfg[ph] = cfg
		t = cfg.end
	}
	writes := phaseCfg{writeRate: wl.writeRate}
	peak := phaseCfg{writeWindow: wl.writeWindow}
	if wl.subWindow > 0 {
		peak = phaseCfg{writeRate: wl.writeRate, subWindow: wl.subWindow}
	}
	// Timeline: warm-up, then steady and admission alternate, then the
	// peak slices back to back at the end. A closed loop does as much work
	// as the system allows, so a peak slice between two steady phases would
	// leave the later one a collection and a retention buffer whose size
	// depends on how fast the system is — and make a faster system look
	// slower there.
	span(phWarm, p.warm, writes)
	for c := 0; c < p.cycles; c++ {
		span(phaseOf(c, kSteady), p.steady, writes)
		span(phaseOf(c, kAdmit), p.admit, phaseCfg{writeRate: wl.writeRate, subRate: wl.subRate})
	}
	for c := 0; c < p.cycles; c++ {
		span(phaseOf(c, kPeak), p.peak, peak)
	}
	r.end = t
	close(r.start)

	for c := 0; c < p.cycles && !r.aborted(); c++ {
		steady := r.cfg[phaseOf(c, kSteady)]
		marks := &r.steady[c]
		r.sleepUntil(steady.start)
		if h.steadyStart != nil {
			h.steadyStart(c)
		}
		marks.before, marks.goBefore = r.st.counters(), readGo()
		cpu0 := cpuTime()
		for next := r.now(); next < steady.end && !r.aborted(); next += int64(100 * time.Millisecond) {
			r.sleepUntil(next)
			q, a := r.st.queueDepth()
			if q > r.queueMax {
				r.queueMax = q
			}
			if a > r.ackerMax {
				r.ackerMax = a
			}
		}
		r.sleepUntil(steady.end)
		marks.cpu = cpuTime() - cpu0
		marks.after, marks.goAfter = r.st.counters(), readGo()
		if h.steadyEnd != nil {
			h.steadyEnd(c)
		}
		r.sleepUntil(r.cfg[phaseOf(c, kAdmit)].end)
		r.admitted[c] = r.st.counters()
	}
	r.sleepUntil(r.end)
	r.drain()
	if err := r.abortCause(); err != nil {
		return err
	}
	r.stopGen.Store(true)
	r.genWG.Wait()
	r.oracle()
	return r.abortCause()
}

func (r *run) sleepUntil(t int64) {
	if d := t - r.now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// drain waits for quiescence: every write acked and every owed event frame
// read, every trickle subscribe answered, and then no frame on any
// connection for 100 ms (removes and window shifts owe no one an answer, so
// only silence says they are through). What is still owed after 5 s is
// counted missing.
func (r *run) drain() {
	deadline := r.now() + int64(5*time.Second)
	for r.now() < deadline && !r.aborted() {
		time.Sleep(10 * time.Millisecond)
		if r.owed() > 0 || r.subsDone.Load() < r.subsSent.Load() {
			continue
		}
		quietSince := int64(0)
		for _, c := range r.conns {
			if t := c.lastFrame.Load(); t > quietSince {
				quietSince = t
			}
		}
		if r.now()-quietSince >= int64(100*time.Millisecond) {
			break
		}
	}
	if r.owed() > 0 {
		for seq := int32(1); seq <= r.seq.Load(); seq++ {
			rec := r.ops.get(seq)
			if v := rec.pending.Load(); v != 0 {
				r.fail("write %d of the %s phase is still owed %d hit notifications (ack outstanding: %v) after drain",
					seq, phaseName(int(rec.phase)), v&(ackBit-1), v&ackBit != 0)
			}
		}
	}
	if n := r.subsSent.Load() - r.subsDone.Load(); n > 0 {
		for i := int64(0); i < n; i++ {
			r.fail("a subscribe got no initial result before drain ended")
		}
	}
}

// owed counts writes sent but not complete.
func (r *run) owed() int64 {
	var n int64
	for _, c := range r.conns {
		n += int64(c.inflightWrites.Load())
	}
	return n
}

// merged gathers one kind of sample for one phase across connections, as
// sorted milliseconds.
func (r *run) merged(phase int, pick func(*phaseSamples) []int64) []float64 {
	var all []int64
	for _, c := range r.conns {
		all = append(all, pick(&c.samples[phase])...)
	}
	return nsToSortedMS(all)
}

func (r *run) writesSent(phase int) int64 {
	var n int64
	for _, c := range r.conns {
		n += c.samples[phase].writes
	}
	return n
}

// result is everything one run reports.
type result struct {
	metrics   map[string]float64
	attempted int64
	failed    int64
	failMsgs  []string
	samples   map[string]int
	invalid   []string // generator-honesty guards that tripped
}

// overCycles evaluates f on every cycle and returns the median.
func (r *run) overCycles(f func(cycle int) float64) float64 {
	vals := make([]float64, r.cycles)
	for c := range vals {
		vals[c] = f(c)
	}
	return median(vals)
}

// quantile returns a metric function: the p-quantile of one kind of sample
// in one kind of phase, per cycle.
func (r *run) quantile(kind int, pick func(*phaseSamples) []int64, p float64) func(int) float64 {
	return func(c int) float64 { return percentile(r.merged(phaseOf(c, kind), pick), p) }
}

func (r *run) steadyWrites() int64 {
	var n int64
	for c := 0; c < r.cycles; c++ {
		n += r.writesSent(phaseOf(c, kSteady))
	}
	return n
}

// endToEnd computes the user-visible metrics of a finished run, each the
// median over the run's cycles.
func (r *run) endToEnd() result {
	res := result{metrics: map[string]float64{}, samples: map[string]int{}}
	m := res.metrics
	notify := func(s *phaseSamples) []int64 { return s.notify }
	ack := func(s *phaseSamples) []int64 { return s.ack }
	sub := func(s *phaseSamples) []int64 { return s.sub }
	lag := func(s *phaseSamples) []int64 { return s.lag }
	m["setup_s"] = r.setupS
	m["notify_p50_ms"] = r.overCycles(r.quantile(kSteady, notify, 0.50))
	m["notify_p80_ms"] = r.overCycles(r.quantile(kSteady, notify, 0.80))
	m["e2e.notify_p90_ms"] = r.overCycles(r.quantile(kSteady, notify, 0.90))
	m["e2e.notify_p95_ms"] = r.overCycles(r.quantile(kSteady, notify, 0.95))
	m["e2e.notify_p99_ms"] = r.overCycles(r.quantile(kSteady, notify, 0.99))
	m["e2e.notify_max_ms"] = r.overCycles(r.quantile(kSteady, notify, 1))
	m["write_ack_p50_ms"] = r.overCycles(r.quantile(kSteady, ack, 0.50))
	m["write_ack_p80_ms"] = r.overCycles(r.quantile(kSteady, ack, 0.80))
	m["e2e.write_ack_p90_ms"] = r.overCycles(r.quantile(kSteady, ack, 0.90))
	m["e2e.write_ack_p95_ms"] = r.overCycles(r.quantile(kSteady, ack, 0.95))
	m["e2e.subscribe_p50_ms"] = r.overCycles(r.quantile(kAdmit, sub, 0.50))
	m["e2e.subscribe_p90_ms"] = r.overCycles(r.quantile(kAdmit, sub, 0.90))
	m["peak_ops_per_s"] = r.overCycles(func(c int) float64 {
		ph := phaseOf(c, kPeak)
		secs := float64(r.cfg[ph].end-r.cfg[ph].start) / 1e9
		if r.wl.subWindow > 0 {
			return float64(r.admits[ph].Load()) / secs
		}
		return float64(r.done[ph].Load()) / secs
	})
	m["peak.notify_p95_ms"] = r.overCycles(r.quantile(kPeak, notify, 0.95))
	m["gen.lag_p95_ms"] = r.overCycles(r.quantile(kSteady, lag, 0.95))
	// CPU time adds up, so all steady phases are pooled: a longer window
	// averages over more collections than the median of three short ones.
	var cpu time.Duration
	for c := 0; c < r.cycles; c++ {
		cpu += r.steady[c].cpu
	}
	m["cpu_ms_per_write"] = float64(cpu) / 1e6 / float64(r.steadyWrites())
	for c := 0; c < r.cycles; c++ {
		res.samples["notify"] += len(r.merged(phaseOf(c, kSteady), notify))
		res.samples["write_ack"] += len(r.merged(phaseOf(c, kSteady), ack))
		res.samples["subscribe"] += len(r.merged(phaseOf(c, kAdmit), sub))
	}
	res.samples["cycles"] = r.cycles

	for ph := 0; ph < numPhases; ph++ {
		res.attempted += r.writesSent(ph)
	}
	res.attempted += int64(len(r.subs)) + r.subsSent.Load() + int64(r.oracleChecked)
	res.failed = r.failures.Load()
	m["e2e.fail_ratio"] = float64(res.failed) / float64(res.attempted)
	r.failMu.Lock()
	res.failMsgs = append(res.failMsgs, r.failMsgs...)
	r.failMu.Unlock()

	if g := m["gen.lag_p95_ms"]; g > 5 {
		res.invalid = append(res.invalid, fmt.Sprintf("generator ran late: gen.lag_p95_ms = %.2f > 5", g))
	}
	if r.nconns > loadConns() {
		res.invalid = append(res.invalid, fmt.Sprintf("%d connections drive load, more than min(nproc, 4)", r.nconns))
	}
	return res
}

// layerCounters turns the two snapshots of the program's own counters,
// taken around the steady phase, into per-layer metrics. A metric whose
// source key has gone is left out and named on stderr.
func (r *run) layerCounters(m map[string]float64) {
	writes := float64(r.steadyWrites())
	var secs, admitSecs float64
	for c := 0; c < r.cycles; c++ {
		secs += float64(r.cfg[phaseOf(c, kSteady)].end-r.cfg[phaseOf(c, kSteady)].start) / 1e9
		admitSecs += float64(r.cfg[phaseOf(c, kAdmit)].end-r.cfg[phaseOf(c, kAdmit)].start) / 1e9
	}
	last := r.steady[r.cycles-1].after
	// delta sums a counter's growth over every cycle's steady phase.
	delta := func(key string) (sum float64, ok bool) {
		for c := 0; c < r.cycles; c++ {
			a, ok1 := r.steady[c].after[key]
			b, ok2 := r.steady[c].before[key]
			if !ok1 || !ok2 {
				return 0, false
			}
			sum += a - b
		}
		return sum, true
	}
	sumDelta := func(suffix string) (float64, bool) {
		var sum float64
		found := false
		for k := range last {
			if strings.HasPrefix(k, "topology.") && strings.HasSuffix(k, suffix) {
				d, _ := delta(k)
				sum += d
				found = true
			}
		}
		return sum, found
	}
	put := func(name string, v float64, ok bool) {
		if !ok {
			fmt.Fprintf(os.Stderr, "benchmark: %s absent: its source counter is gone\n", name)
			return
		}
		m[name] = v
	}
	ratio := func(name, num, den string) {
		n, ok1 := delta(num)
		d, ok2 := delta(den)
		if d == 0 {
			d = 1 // nothing happened: report the numerator, which is 0 too
		}
		put(name, n/d, ok1 && ok2)
	}
	per := func(name, key string, div float64) {
		d, ok := delta(key)
		put(name, d/div, ok)
	}
	abs := func(name, key string) {
		d, ok := delta(key)
		put(name, d, ok)
	}
	level := func(name, key string) {
		v, ok := last[key]
		put(name, v, ok)
	}

	per("bus.msgs_per_write", "broker.published", writes)
	abs("bus.dropped", "broker.dropped")
	ratio("wire.write_bytes", "wire.encode.write.bytes", "wire.encode.write.messages")

	tuples, ok := sumDelta(".executed")
	put("topology.tuples_per_write", tuples/writes, ok)
	failed, ok := sumDelta(".failed")
	put("topology.failed_tuples", failed, ok)
	restarts, ok := sumDelta(".restarts")
	put("topology.restarts", restarts, ok)
	m["topology.queue_max"] = float64(r.queueMax)
	m["topology.acker_inflight_max"] = r.ackerMax

	level("stage.ingest_ms", "stage.ingest.p50_ms")
	level("stage.grid_ms", "stage.grid.p50_ms")
	level("stage.bus_ms", "stage.bus.p50_ms")
	level("stage.appserver_ms", "stage.appserver.p50_ms")
	per("match.candidates_per_write", "queryindex.candidates.probed", writes)
	per("match.evaluated_per_write", "queryindex.candidates.evaluated", writes)
	ratio("match.useful_ratio", "queryindex.candidates.matched", "queryindex.candidates.evaluated")
	per("sort.events_per_write", "topology.sort.executed", writes)
	// Admission metrics are deltas over the admission phases, each of
	// which starts where its cycle's steady phase ends.
	admitDelta := func(key string) (sum float64, ok bool) {
		for c := 0; c < r.cycles; c++ {
			a, ok1 := r.admitted[c][key]
			b, ok2 := r.steady[c].after[key]
			if !ok1 || !ok2 {
				return 0, false
			}
			sum += a - b
		}
		return sum, true
	}
	installs, ok := admitDelta("cluster.subscribes")
	put("cluster.installs_per_s", installs/admitSecs, ok)
	chunks, ok2 := admitDelta("backfill.chunks")
	put("backfill.chunks_per_admit", chunks/math.Max(installs, 1), ok && ok2)
	retries, ok := admitDelta("backfill.retries")
	put("backfill.retries", retries, ok)

	per("appserver.notifs_per_write", "appserver.notifications", writes)
	per("appserver.renewals_per_s", "appserver.renewals", secs)
	abs("appserver.dedup_drops", "appserver.dedup_drops")
	abs("appserver.event_drops", "appserver.event_drops")

	ratio("gateway.encoded_per_event", "gateway.events.encoded", "gateway.events.fanout")
	per("gateway.delivered_per_s", "gateway.events.fanout", secs)
	abs("gateway.shed_events", "gateway.client.drops")
	abs("gateway.resyncs", "gateway.client.resyncs")
	var deliveries, bytes int64
	for _, c := range r.conns {
		deliveries += c.deliveries
		bytes += c.deliveryBytes
	}
	if deliveries == 0 {
		deliveries = 1
	}
	m["gateway.bytes_per_delivery"] = float64(bytes) / float64(deliveries)

	var mallocs, allocBytes uint64
	pauses := []float64{0}
	for c := 0; c < r.cycles; c++ {
		mk := &r.steady[c]
		mallocs += mk.goAfter.mallocs - mk.goBefore.mallocs
		allocBytes += mk.goAfter.allocBytes - mk.goBefore.allocBytes
		pauses = append(pauses, mk.goAfter.gcPausesSince(mk.goBefore)...)
	}
	sort.Float64s(pauses)
	m["go.allocs_per_write"] = float64(mallocs) / writes
	m["go.alloc_bytes_per_write"] = float64(allocBytes) / writes
	m["go.gc_pause_p95_ms"] = percentile(pauses, 0.95)
	m["go.gc_cpu_fraction"] = r.steady[r.cycles-1].goAfter.gcCPUFraction
}
