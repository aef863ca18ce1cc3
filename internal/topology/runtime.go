package topology

import (
	"fmt"
	"math/rand"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"invalidb/internal/metrics"
)

// Topology is a running dataflow. Create one with Builder.Build, start it
// with Start, and tear it down with Stop.
type Topology struct {
	cfg     Config
	comps   map[string]*component
	order   []string
	acker   *acker
	stopped chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	halted  atomic.Bool
}

type component struct {
	top    *Topology
	def    *componentDef
	tasks  []*task
	routes map[string][]*route // stream -> downstream subscriptions
}

type route struct {
	sub    *subscription
	target *component
	rr     atomic.Uint64 // round-robin cursor for shuffle grouping
}

type task struct {
	comp  *component
	id    int
	in    chan *Tuple
	spout Spout
	bolt  Bolt

	executed atomic.Uint64
	emitted  atomic.Uint64
	acked    atomic.Uint64
	failed   atomic.Uint64

	pending     chan struct{}   // spout max-pending semaphore (nil = unlimited)
	completions chan completion // ack/fail results, drained on the spout goroutine
	wake        chan struct{}   // cap 1: a completion is queued, unpark the spout
	rng         *rand.Rand
	rngMu       sync.Mutex
	rootScratch []uint64 // reused by batch emits to gather anchor roots

	// Supervisor state. inflight, incarnation and openRoot are touched only
	// on the task goroutine; the counters are atomics so Stats can read
	// them concurrently.
	inflight    *Tuple // tuple currently inside Execute
	incarnation int    // supervisor restarts of this task so far
	openRoot    uint64 // root being fanned out by spoutEmit right now
	restarts    atomic.Uint64
	panics      atomic.Uint64
	dead        atomic.Bool
	lastPanic   atomic.Value  // string: last recovered panic value + stack
	haltedCh    chan struct{} // closed when a spout task stops for good
	haltOnce    sync.Once
}

// recordPanic preserves a recovered panic's value and stack so the
// supervisor never hides why a task crashed: the reason is exposed through
// TaskStats.LastPanic even after the task is replaced or marked dead.
func (tk *task) recordPanic(r any) {
	tk.lastPanic.Store(fmt.Sprintf("%s[%d]: panic: %v\n%s",
		tk.comp.def.id, tk.id, r, debug.Stack()))
}

// markHalted records that this spout task will never drain completions
// again, letting the acker discard its remaining ledgers.
func (tk *task) markHalted() {
	tk.haltOnce.Do(func() { close(tk.haltedCh) })
}

func (tk *task) isHalted() bool {
	select {
	case <-tk.haltedCh:
		return true
	default:
		return false
	}
}

// tuplePool recycles Tuple objects across deliveries. A tuple is drawn in
// fanOut and returned the moment the receiving bolt acks or fails it, so a
// steady-state topology routes without allocating tuples at all.
var tuplePool = sync.Pool{New: func() any { return new(Tuple) }}

// recycleTuple resets a delivered tuple and returns it to the pool. The
// extra-anchor slices keep their capacity so multi-anchored batch tuples
// recycle allocation-free too.
//
//invalidb:hotpath
func recycleTuple(t *Tuple) {
	t.Component = ""
	t.Stream = ""
	t.Values = nil
	t.fields = nil
	t.root = 0
	t.edge = 0
	t.taskID = 0
	t.extraRoots = t.extraRoots[:0]
	t.extraEdges = t.extraEdges[:0]
	t.done = false
	tuplePool.Put(t)
}

// completion is an ack or fail verdict for a spout root tuple. Completions
// are queued and delivered on the spout's own task goroutine (as in Storm),
// so Spout implementations never see Ack/Fail concurrently with Next.
type completion struct {
	id MsgID
	ok bool
}

func newTopology(b *Builder, cfg Config) (*Topology, error) {
	t := &Topology{
		cfg:     cfg,
		comps:   map[string]*component{},
		order:   append([]string(nil), b.order...),
		stopped: make(chan struct{}),
	}
	if cfg.EnableAcking {
		t.acker = newAcker(cfg.AckTimeout)
	}
	for _, id := range b.order {
		def := b.components[id]
		comp := &component{top: t, def: def, routes: map[string][]*route{}}
		for i := 0; i < def.parallelism; i++ {
			tk := &task{
				comp:     comp,
				id:       i,
				rng:      rand.New(rand.NewSource(int64(len(id))*7919 + int64(i) + 1)),
				haltedCh: make(chan struct{}),
			}
			if def.bolt != nil {
				tk.in = make(chan *Tuple, cfg.QueueSize)
				tk.bolt = def.bolt()
			} else {
				tk.spout = def.spout()
				if cfg.EnableAcking {
					if cfg.MaxSpoutPending > 0 {
						tk.pending = make(chan struct{}, cfg.MaxSpoutPending)
					}
					qlen := 4 * cfg.QueueSize
					if cfg.MaxSpoutPending > 0 && 2*cfg.MaxSpoutPending > qlen {
						qlen = 2 * cfg.MaxSpoutPending
					}
					tk.completions = make(chan completion, qlen)
					tk.wake = make(chan struct{}, 1)
				}
			}
			comp.tasks = append(comp.tasks, tk)
		}
		t.comps[id] = comp
	}
	// Resolve routes: for every bolt subscription, register a route on the
	// upstream component's stream.
	for _, id := range b.order {
		def := b.components[id]
		for i := range def.subs {
			sub := &def.subs[i]
			up := t.comps[sub.from]
			up.routes[sub.stream] = append(up.routes[sub.stream], &route{sub: sub, target: t.comps[id]})
		}
	}
	return t, nil
}

// Start prepares all bolts, opens all spouts, and begins processing.
func (t *Topology) Start() error {
	if !t.started.CompareAndSwap(false, true) {
		return fmt.Errorf("topology: already started")
	}
	if t.acker != nil {
		t.acker.start(&t.wg, t.stopped)
	}
	// Prepare bolts before any spout can emit.
	for _, id := range t.order {
		comp := t.comps[id]
		if comp.def.bolt == nil {
			continue
		}
		for _, tk := range comp.tasks {
			if err := tk.bolt.Prepare(&BoltContext{TaskID: tk.id, Meta: taskMetaFor(comp.def, tk.id)}, &taskCollector{task: tk}); err != nil {
				return fmt.Errorf("topology: prepare %s[%d]: %w", id, tk.id, err)
			}
			t.wg.Add(1)
			go tk.boltLoop(&t.wg)
		}
	}
	for _, id := range t.order {
		comp := t.comps[id]
		if comp.def.spout == nil {
			continue
		}
		for _, tk := range comp.tasks {
			if err := tk.spout.Open(tk.spoutContext()); err != nil {
				return fmt.Errorf("topology: open %s[%d]: %w", id, tk.id, err)
			}
			t.wg.Add(1)
			go tk.spoutLoop(&t.wg)
		}
	}
	return nil
}

// Stop halts all tasks. In-flight tuples are dropped — with acking enabled
// their trees would simply replay on a restarted topology, matching Storm's
// kill semantics.
func (t *Topology) Stop() {
	if !t.halted.CompareAndSwap(false, true) {
		return
	}
	close(t.stopped)
	t.wg.Wait()
	for _, id := range t.order {
		comp := t.comps[id]
		for _, tk := range comp.tasks {
			// A dead task's last instance may be mid-panic broken; shut it
			// down defensively so teardown always completes.
			if tk.spout != nil {
				safeCloseSpout(tk.spout)
			}
			if tk.bolt != nil {
				safeCleanupBolt(tk.bolt)
			}
		}
	}
}

// TaskStats is a point-in-time snapshot of one task's counters.
type TaskStats struct {
	Component string
	TaskID    int
	Executed  uint64
	Emitted   uint64
	Acked     uint64
	Failed    uint64
	QueueLen  int
	// Restarts counts supervisor replacements of this task's component
	// instance; Panics counts recovered panics (Panics can exceed
	// Restarts by one when the task died). Dead reports that the task
	// exhausted its restart budget and now fails all input. LastPanic
	// carries the most recent recovered panic's value and stack trace
	// ("" when the task never panicked), so a restarted or dead task
	// leaves a diagnosable trail instead of a bare counter.
	Restarts  uint64
	Panics    uint64
	Dead      bool
	LastPanic string
}

// Stats snapshots all task counters.
func (t *Topology) Stats() []TaskStats {
	var out []TaskStats
	for _, id := range t.order {
		comp := t.comps[id]
		for _, tk := range comp.tasks {
			s := TaskStats{
				Component: id,
				TaskID:    tk.id,
				Executed:  tk.executed.Load(),
				Emitted:   tk.emitted.Load(),
				Acked:     tk.acked.Load(),
				Failed:    tk.failed.Load(),
				Restarts:  tk.restarts.Load(),
				Panics:    tk.panics.Load(),
				Dead:      tk.dead.Load(),
			}
			if lp, ok := tk.lastPanic.Load().(string); ok {
				s.LastPanic = lp
			}
			if tk.in != nil {
				s.QueueLen = len(tk.in)
			}
			out = append(out, s)
		}
	}
	return out
}

// AckerInFlight reports the number of open acker ledgers (tuple trees
// emitted but not yet fully acked, failed, or timed out). Zero when
// acking is disabled.
func (t *Topology) AckerInFlight() int {
	if t.acker == nil {
		return 0
	}
	return t.acker.pendingCount()
}

// RegisterMetrics exports per-component task aggregates — executed /
// emitted / acked / failed / restarts / panics / dead counts, queue
// depths — plus acker in-flight and last-panic text into the registry.
// Everything is sampled from the existing task atomics at snapshot
// time, so registration adds no cost to tuple processing.
func (t *Topology) RegisterMetrics(r *metrics.Registry) {
	r.Gauge("topology.acker.in_flight", func() float64 { return float64(t.AckerInFlight()) })
	r.Text("topology.last_panic", func() string {
		var last string
		for _, s := range t.Stats() {
			if s.LastPanic != "" {
				last = s.Component + ": " + s.LastPanic
			}
		}
		return last
	})
	r.Collect(func(emit func(name string, v float64)) {
		agg := map[string]*TaskStats{}
		dead := map[string]int{}
		for _, s := range t.Stats() {
			a := agg[s.Component]
			if a == nil {
				a = &TaskStats{}
				agg[s.Component] = a
			}
			a.Executed += s.Executed
			a.Emitted += s.Emitted
			a.Acked += s.Acked
			a.Failed += s.Failed
			a.Restarts += s.Restarts
			a.Panics += s.Panics
			a.QueueLen += s.QueueLen
			if s.Dead {
				dead[s.Component]++
			}
		}
		for comp, a := range agg {
			emit("topology."+comp+".executed", float64(a.Executed))
			emit("topology."+comp+".emitted", float64(a.Emitted))
			emit("topology."+comp+".acked", float64(a.Acked))
			emit("topology."+comp+".failed", float64(a.Failed))
			emit("topology."+comp+".restarts", float64(a.Restarts))
			emit("topology."+comp+".panics", float64(a.Panics))
			emit("topology."+comp+".queue_len", float64(a.QueueLen))
			emit("topology."+comp+".dead", float64(dead[comp]))
		}
	})
}

// spoutLoop supervises one spout task: it drives the spout until the
// topology stops, recovering panics and replacing the crashed spout with a
// fresh instance up to MaxTaskRestarts times. A spout that exhausts its
// restarts is marked dead and halted so the acker deletes its remaining
// ledgers instead of queueing completions nobody will ever drain.
func (tk *task) spoutLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	defer tk.markHalted()
	top := tk.comp.top
	for {
		if tk.runSpout() {
			return // topology stopped
		}
		tk.panics.Add(1)
		if tk.openRoot != 0 {
			// The panic interrupted spoutEmit mid-fan-out: fail the
			// half-registered tree so it replays instead of leaking an
			// unsealed ledger.
			if top.acker != nil {
				top.acker.fail(tk.openRoot)
			}
			tk.openRoot = 0
		}
		if int(tk.restarts.Load()) >= top.cfg.MaxTaskRestarts {
			tk.dead.Store(true)
			return
		}
		tk.restarts.Add(1)
		tk.incarnation++
		safeCloseSpout(tk.spout)
		fresh := tk.comp.def.spout()
		if err := fresh.Open(tk.spoutContext()); err != nil {
			tk.dead.Store(true)
			return
		}
		tk.spout = fresh
		tk.notifyRestart()
	}
}

// spoutContext builds the context a spout instance — the original or a
// supervisor replacement — is opened with.
func (tk *task) spoutContext() *SpoutContext {
	return &SpoutContext{TaskID: tk.id, Emit: tk.spoutEmit, Wake: tk.wake, Done: tk.comp.top.stopped}
}

// runSpout is one supervised run of the spout drive loop. It reports true
// when the topology stopped and false when the spout panicked.
func (tk *task) runSpout() (stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			tk.recordPanic(r)
			stopped = false
		}
	}()
	tk.driveSpout()
	return true
}

// driveSpout alternates completion delivery (so Ack/Fail run on this
// goroutine) with Next until the topology stops. Next parks while the spout
// has no input; acker.complete and Stop unpark it, so the loop itself never
// sleeps and never arms a timer.
//
//invalidb:hotpath
func (tk *task) driveSpout() {
	stop := tk.comp.top.stopped
	for {
		tk.drainCompletions()
		select {
		case <-stop:
			return
		default:
		}
		tk.spout.Next()
	}
}

func (tk *task) notifyRestart() {
	if cb := tk.comp.top.cfg.OnTaskRestart; cb != nil {
		go cb(tk.comp.def.id, tk.id)
	}
}

// safeCloseSpout / safeCleanupBolt shut down a (possibly already broken)
// component instance without letting its panic escape the supervisor.
func safeCloseSpout(s Spout) {
	defer func() { _ = recover() }()
	s.Close()
}

func safeCleanupBolt(b Bolt) {
	defer func() { _ = recover() }()
	b.Cleanup()
}

func (tk *task) drainCompletions() {
	if tk.completions == nil {
		return
	}
	for {
		select {
		case c := <-tk.completions:
			tk.deliver(c)
		default:
			return
		}
	}
}

func (tk *task) deliver(c completion) {
	if c.ok {
		tk.spout.Ack(c.id)
	} else {
		tk.spout.Fail(c.id)
	}
}

// spoutEmit injects a root tuple.
func (tk *task) spoutEmit(values Values) MsgID {
	top := tk.comp.top
	var root uint64
	if top.acker != nil {
		if tk.pending != nil {
			select {
			case tk.pending <- struct{}{}:
			case <-top.stopped:
				return 0
			}
		}
		root = tk.nextID()
		top.acker.register(root, tk)
		tk.openRoot = root // supervisor fails this if the spout panics mid-emit
	}
	tk.emitted.Add(1)
	tk.comp.fanOut(tk, DefaultStream, root, nil, values, -1)
	if top.acker != nil {
		// Seal the registration: if the fan-out reached no consumer the
		// tree completes immediately.
		top.acker.seal(root)
		tk.openRoot = 0
	}
	return MsgID(root)
}

// releasePending frees one max-pending slot after ack or fail.
func (tk *task) releasePending() {
	if tk.pending != nil {
		select {
		case <-tk.pending:
		default:
		}
	}
}

func (tk *task) nextID() uint64 {
	tk.rngMu.Lock()
	defer tk.rngMu.Unlock()
	for {
		if v := tk.rng.Uint64(); v != 0 {
			return v
		}
	}
}

// boltLoop supervises one bolt task: it consumes the input queue until the
// topology stops, recovering panics thrown by Execute/Idle. A panic fails
// the in-flight tuple's ledger (so the acker triggers spout replay) and the
// crashed bolt is replaced with a fresh instance from the component
// factory, up to MaxTaskRestarts times; after that the task is marked dead
// but keeps draining — and failing — its input so upstream emitters never
// block on a queue nobody reads.
func (tk *task) boltLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if tk.runBolt() {
			return // topology stopped
		}
		tk.panics.Add(1)
		tk.failInflight()
		if int(tk.restarts.Load()) >= tk.comp.top.cfg.MaxTaskRestarts {
			tk.dead.Store(true)
			tk.drainDead()
			return
		}
		tk.restarts.Add(1)
		tk.incarnation++
		safeCleanupBolt(tk.bolt)
		fresh := tk.comp.def.bolt()
		err := fresh.Prepare(&BoltContext{TaskID: tk.id, Incarnation: tk.incarnation, Meta: taskMetaFor(tk.comp.def, tk.id)}, &taskCollector{task: tk})
		if err != nil {
			tk.dead.Store(true)
			tk.drainDead()
			return
		}
		tk.bolt = fresh
		tk.notifyRestart()
	}
}

// taskMetaFor resolves a component's per-task placement metadata (nil when
// the component declared no TaskMeta hook). Called at every bolt Prepare —
// initial start and supervisor restarts alike — so replacements see the
// same metadata as the instance they replace.
func taskMetaFor(def *componentDef, taskID int) any {
	if def.taskMeta == nil {
		return nil
	}
	return def.taskMeta(taskID)
}

// runBolt is one supervised run of the bolt consume loop. Bolts
// implementing IdleBolt get an Idle callback every time the queue drains,
// before the loop blocks. It reports true when the topology stopped and
// false when the bolt panicked.
func (tk *task) runBolt() (stopped bool) {
	defer func() {
		if r := recover(); r != nil {
			tk.recordPanic(r)
			stopped = false
		}
	}()
	idler, _ := tk.bolt.(IdleBolt)
	stop := tk.comp.top.stopped
	for {
		select {
		case <-stop:
			return true
		case tup := <-tk.in:
			tk.execute(tup)
		default:
			if idler != nil {
				idler.Idle()
			}
			select {
			case <-stop:
				return true
			case tup := <-tk.in:
				tk.execute(tup)
			}
		}
	}
}

// execute tracks the in-flight tuple across Execute so a panic can fail
// exactly the tuple being processed. inflight is cleared by recycle (same
// goroutine) the moment the bolt acks or fails the tuple itself.
func (tk *task) execute(tup *Tuple) {
	tk.executed.Add(1)
	tk.inflight = tup
	tk.bolt.Execute(tup)
	tk.inflight = nil
}

// failInflight fails the tuple the bolt was executing when it panicked,
// unless the bolt already acked/failed it before the panic (recycle clears
// inflight in that case, so a pooled-and-reused tuple is never touched).
func (tk *task) failInflight() {
	t := tk.inflight
	tk.inflight = nil
	if t == nil || t.done {
		return
	}
	(&taskCollector{task: tk}).Fail(t)
}

// drainDead keeps a dead task's input queue moving: every tuple is failed
// on arrival so its tree replays (to be re-routed through surviving tasks
// where the grouping allows) and upstream deliver calls never block.
func (tk *task) drainDead() {
	col := &taskCollector{task: tk}
	stop := tk.comp.top.stopped
	for {
		select {
		case <-stop:
			return
		case tup := <-tk.in:
			col.Fail(tup)
		}
	}
}

// fanOut routes values to every downstream subscriber of the component's
// stream, anchored to root (0 = unanchored) plus any extraRoots of a batch
// emit. directTask >= 0 restricts direct-grouping routes to that task index.
//
//invalidb:hotpath
func (comp *component) fanOut(from *task, stream string, root uint64, extraRoots []uint64, values Values, directTask int) {
	fields := comp.def.outputs[stream]
	for _, r := range comp.routes[stream] {
		tasks := r.target.tasks
		switch r.sub.kind {
		case groupShuffle:
			if !comp.deliver(from, stream, fields, root, extraRoots, values, tasks[r.rr.Add(1)%uint64(len(tasks))]) {
				return
			}
		case groupFields:
			h := hashFields(values, r.sub.indexes)
			if !comp.deliver(from, stream, fields, root, extraRoots, values, tasks[h%uint64(len(tasks))]) {
				return
			}
		case groupBroadcast:
			for _, target := range tasks {
				if !comp.deliver(from, stream, fields, root, extraRoots, values, target) {
					return
				}
			}
		case groupGlobal:
			if !comp.deliver(from, stream, fields, root, extraRoots, values, tasks[0]) {
				return
			}
		case groupDirect:
			if directTask < 0 {
				continue // non-direct emit skips direct routes
			}
			if !comp.deliver(from, stream, fields, root, extraRoots, values, tasks[directTask%len(tasks)]) {
				return
			}
		}
	}
}

// deliver sends one pooled tuple copy to target, registering ack edges for
// every anchored root. It reports false when the topology stopped.
//
//invalidb:hotpath
func (comp *component) deliver(from *task, stream string, fields []string, root uint64, extraRoots []uint64, values Values, target *task) bool {
	top := comp.top
	tup := tuplePool.Get().(*Tuple)
	tup.Component = comp.def.id
	tup.Stream = stream
	tup.Values = values
	tup.fields = fields
	tup.root = root
	tup.edge = 0
	tup.taskID = from.id
	tup.done = false
	tup.extraRoots = tup.extraRoots[:0]
	tup.extraEdges = tup.extraEdges[:0]
	if top.acker != nil {
		if root != 0 {
			tup.edge = from.nextID()
			top.acker.update(root, tup.edge)
		}
		for _, xr := range extraRoots {
			if xr == 0 {
				continue
			}
			edge := from.nextID()
			tup.extraRoots = append(tup.extraRoots, xr)
			tup.extraEdges = append(tup.extraEdges, edge)
			top.acker.update(xr, edge)
		}
	}
	select {
	case target.in <- tup:
		return true
	case <-top.stopped:
		return false
	}
}

// taskCollector implements Collector for one bolt task.
type taskCollector struct {
	task *task
}

func (c *taskCollector) Emit(anchor *Tuple, values Values) {
	c.emit(DefaultStream, anchor, values, -1)
}

func (c *taskCollector) EmitStream(stream string, anchor *Tuple, values Values) {
	c.emit(stream, anchor, values, -1)
}

func (c *taskCollector) EmitDirect(taskID int, anchor *Tuple, values Values) {
	if taskID < 0 {
		taskID = 0
	}
	c.emit(DefaultStream, anchor, values, taskID)
}

func (c *taskCollector) EmitDirectStream(stream string, taskID int, anchor *Tuple, values Values) {
	if taskID < 0 {
		taskID = 0
	}
	c.emit(stream, anchor, values, taskID)
}

//invalidb:hotpath
func (c *taskCollector) emit(stream string, anchor *Tuple, values Values, direct int) {
	c.task.emitted.Add(1)
	var root uint64
	var extra []uint64
	if anchor != nil {
		// A batch anchor fans its whole root set into the new tuple, so
		// downstream failures still reach every write in the batch.
		root = anchor.root
		extra = anchor.extraRoots
	}
	c.task.comp.fanOut(c.task, stream, root, extra, values, direct)
}

//invalidb:hotpath
func (c *taskCollector) EmitBatch(anchors []*Tuple, values Values) {
	c.task.emitted.Add(1)
	root, extra := c.task.gatherRoots(anchors)
	c.task.comp.fanOut(c.task, DefaultStream, root, extra, values, -1)
}

//invalidb:hotpath
func (c *taskCollector) EmitDirectBatch(taskID int, anchors []*Tuple, values Values) {
	if taskID < 0 {
		taskID = 0
	}
	c.task.emitted.Add(1)
	root, extra := c.task.gatherRoots(anchors)
	c.task.comp.fanOut(c.task, DefaultStream, root, extra, values, taskID)
}

// gatherRoots flattens the ack roots of a batch's anchors into a primary
// root plus extras, reusing the task's scratch slice (tasks are
// single-threaded, so the scratch is safe until the next batch emit).
//
//invalidb:hotpath
func (tk *task) gatherRoots(anchors []*Tuple) (uint64, []uint64) {
	tk.rootScratch = tk.rootScratch[:0]
	var root uint64
	for _, a := range anchors {
		if a == nil {
			continue
		}
		if a.root != 0 {
			if root == 0 {
				root = a.root
			} else {
				tk.rootScratch = append(tk.rootScratch, a.root)
			}
		}
		tk.rootScratch = append(tk.rootScratch, a.extraRoots...)
	}
	return root, tk.rootScratch
}

//invalidb:hotpath
func (c *taskCollector) Ack(t *Tuple) {
	c.task.acked.Add(1)
	top := c.task.comp.top
	if top.acker != nil {
		if t.root != 0 {
			top.acker.update(t.root, t.edge)
		}
		for i, xr := range t.extraRoots {
			top.acker.update(xr, t.extraEdges[i])
		}
	}
	c.recycle(t)
}

//invalidb:hotpath
func (c *taskCollector) Fail(t *Tuple) {
	c.task.failed.Add(1)
	top := c.task.comp.top
	if top.acker != nil {
		if t.root != 0 {
			top.acker.fail(t.root)
		}
		// A failed batch tuple aborts every anchored tree: the batch
		// succeeds or fails as a unit.
		for _, xr := range t.extraRoots {
			top.acker.fail(xr)
		}
	}
	c.recycle(t)
}

// recycle returns an input tuple to the pool exactly once. It also clears
// the task's in-flight marker (same goroutine) so the supervisor never
// fails a tuple the bolt already settled before panicking.
//
//invalidb:hotpath
func (c *taskCollector) recycle(t *Tuple) {
	if t.done {
		return
	}
	t.done = true
	if c.task.inflight == t {
		c.task.inflight = nil
	}
	recycleTuple(t)
}

// FNV-1a constants shared by the routing hash.
const (
	offset64 = 14695981039346656037
	prime64  = 1099511628211
)

// hashFields computes an FNV-1a hash over the selected value positions with
// type-switched fast paths, so routing common key types (strings, integers,
// byte slices) performs no allocation. The rare fallback for exotic types
// formats the value, matching the legacy behaviour.
//
//invalidb:hotpath
func hashFields(values Values, indexes []int) uint64 {
	h := uint64(offset64)
	for _, idx := range indexes {
		if idx < len(values) {
			h = hashValue(h, values[idx])
		}
		h ^= 0xff
		h *= prime64
	}
	return h
}

//invalidb:hotpath
func hashValue(h uint64, v any) uint64 {
	switch x := v.(type) {
	case string:
		for i := 0; i < len(x); i++ {
			h ^= uint64(x[i])
			h *= prime64
		}
	case []byte:
		for _, b := range x {
			h ^= uint64(b)
			h *= prime64
		}
	case uint64:
		h = hashUint64(h, x)
	case int:
		h = hashUint64(h, uint64(x))
	case int64:
		h = hashUint64(h, uint64(x))
	case uint:
		h = hashUint64(h, uint64(x))
	case int32:
		h = hashUint64(h, uint64(x))
	case uint32:
		h = hashUint64(h, uint64(x))
	case bool:
		if x {
			h = hashUint64(h, 1)
		} else {
			h = hashUint64(h, 0)
		}
	default:
		//invalidb:allow hotpathalloc rare fallback for exotic key types, matching legacy formatting behaviour
		s := fmt.Sprint(x)
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
	}
	return h
}

//invalidb:hotpath
func hashUint64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h ^= v & 0xff
		h *= prime64
		v >>= 8
	}
	return h
}

// RouteHash exposes the fields-grouping hash: it hashes the given value
// positions exactly as fields grouping does. Benchmarks assert its
// allocation-free fast paths.
//
//invalidb:hotpath
func RouteHash(values Values, indexes []int) uint64 {
	return hashFields(values, indexes)
}
