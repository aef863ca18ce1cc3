package topology

import (
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"invalidb/internal/metrics"
)

// Topology is a running dataflow. Create one with Builder.Build, start it
// with Start, and tear it down with Stop.
type Topology struct {
	comps   map[string]*component
	order   []string
	stopped chan struct{}
	wg      sync.WaitGroup
	started atomic.Bool
	halted  atomic.Bool
}

type component struct {
	top    *Topology
	def    *componentDef
	tasks  []*task
	srcs   map[string]*source  // stream -> what its tuples share
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
	in    chan Tuple
	spout Spout
	bolt  Bolt
	// ready records that the instance was opened/prepared, so Stop closes
	// exactly what Start brought up.
	ready bool

	executed atomic.Uint64
	emitted  atomic.Uint64
	failed   atomic.Uint64

	// cur is the tuple inside Execute. execute zeroes it when Execute
	// returns, and the supervisor when Execute panics, so no payload
	// outlives its Execute.
	cur Tuple

	// Supervisor state. inflight and incarnation are touched only on the
	// task goroutine; the counters are atomics so Stats can read them
	// concurrently.
	inflight    bool // cur is inside Execute
	incarnation int  // supervisor restarts of this task so far
	restarts    atomic.Uint64
	panics      atomic.Uint64
	dead        atomic.Bool
	lastPanic   atomic.Value // string: last recovered panic value + stack
}

// recordPanic preserves a recovered panic's value and stack so the
// supervisor never hides why a task crashed: the reason is exposed through
// TaskStats.LastPanic even after the task is replaced or marked dead.
func (tk *task) recordPanic(r any) {
	tk.lastPanic.Store(fmt.Sprintf("%s[%d]: panic: %v\n%s",
		tk.comp.def.id, tk.id, r, debug.Stack()))
}

func newTopology(b *Builder, queueSize int) (*Topology, error) {
	t := &Topology{
		comps:   map[string]*component{},
		order:   append([]string(nil), b.order...),
		stopped: make(chan struct{}),
	}
	for _, id := range b.order {
		def := b.components[id]
		comp := &component{top: t, def: def, srcs: map[string]*source{}, routes: map[string][]*route{}}
		for stream, fields := range def.outputs {
			comp.srcs[stream] = &source{component: id, stream: stream, fields: fields}
		}
		for i := 0; i < def.parallelism; i++ {
			tk := &task{comp: comp, id: i}
			if def.bolt != nil {
				tk.in = make(chan Tuple, queueSize)
				tk.bolt = def.bolt()
			} else {
				tk.spout = def.spout()
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

// Start prepares all bolts, opens all spouts, and begins processing. When a
// Prepare or Open fails, everything already brought up is stopped and
// released before the error returns; the topology cannot be started again.
func (t *Topology) Start() error {
	if !t.started.CompareAndSwap(false, true) {
		return fmt.Errorf("topology: already started")
	}
	if err := t.start(); err != nil {
		t.Stop()
		return err
	}
	return nil
}

func (t *Topology) start() error {
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
			tk.ready = true
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
			tk.ready = true
			t.wg.Add(1)
			go tk.spoutLoop(&t.wg)
		}
	}
	return nil
}

// Stop halts all tasks and releases every instance Start brought up. Tuples
// still queued are dropped.
func (t *Topology) Stop() {
	if !t.halted.CompareAndSwap(false, true) {
		return
	}
	close(t.stopped)
	t.wg.Wait()
	for _, id := range t.order {
		comp := t.comps[id]
		for _, tk := range comp.tasks {
			if !tk.ready {
				continue
			}
			// A dead task's last instance may be mid-panic broken; shut it
			// down defensively so teardown always completes.
			if tk.spout != nil {
				safeCloseSpout(tk.spout)
			} else {
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
	// Failed counts tuples the supervisor dropped: in flight at a panic, or
	// drained by a dead task.
	Failed   uint64
	QueueLen int
	// Restarts counts supervisor replacements of this task's component
	// instance; Panics counts recovered panics (Panics can exceed
	// Restarts by one when the task died). Dead reports that the task
	// exhausted its restart budget and now drops all input. LastPanic
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

// RegisterMetrics exports per-component task aggregates — executed /
// emitted / failed / restarts / panics / dead counts, queue depths — plus
// last-panic text into the registry. Everything is sampled from the
// existing task atomics at snapshot time, so registration adds no cost to
// tuple processing.
func (t *Topology) RegisterMetrics(r *metrics.Registry) {
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
// fresh instance up to maxTaskRestarts times. A spout that exhausts its
// restarts is marked dead and stops emitting.
func (tk *task) spoutLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if tk.runSpout() {
			return // topology stopped
		}
		tk.panics.Add(1)
		if tk.restarts.Load() >= maxTaskRestarts {
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
	}
}

// spoutContext builds the context a spout instance — the original or a
// supervisor replacement — is opened with.
func (tk *task) spoutContext() *SpoutContext {
	return &SpoutContext{TaskID: tk.id, Emit: tk.spoutEmit, Done: tk.comp.top.stopped}
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

// driveSpout calls Next until the topology stops. Next parks while the spout
// has no input and Stop unparks it (SpoutContext.Done), so the loop itself
// never sleeps and never arms a timer.
//
//invalidb:hotpath
func (tk *task) driveSpout() {
	stop := tk.comp.top.stopped
	for {
		select {
		case <-stop:
			return
		default:
		}
		tk.spout.Next()
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

// spoutEmit injects a tuple on the spout's default stream.
func (tk *task) spoutEmit(values Values) {
	tk.emit(DefaultStream, values, -1)
}

// emit counts one emit of this task and routes it downstream.
//
//invalidb:hotpath
func (tk *task) emit(stream string, values Values, direct int) {
	tk.emitted.Add(1)
	tk.comp.fanOut(stream, values, direct)
}

// boltLoop supervises one bolt task: it consumes the input queue until the
// topology stops, recovering panics thrown by Execute/Idle. A panic drops
// the in-flight tuple and the crashed bolt is replaced with a fresh instance
// from the component factory, up to maxTaskRestarts times; after that the
// task is marked dead but keeps draining — and dropping — its input so
// upstream emitters never block on a queue nobody reads.
func (tk *task) boltLoop(wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		if tk.runBolt() {
			return // topology stopped
		}
		tk.panics.Add(1)
		if tk.inflight {
			tk.inflight = false
			tk.drop()
		}
		if tk.restarts.Load() >= maxTaskRestarts {
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

// execute runs the bolt on one tuple. The tuple is copied into the task's
// own slot, so the pointer Execute receives does not escape to the heap, and
// the slot is zeroed when Execute returns. A panic skips both and leaves
// inflight set, where the supervisor finds the tuple and drops it.
//
//invalidb:hotpath
func (tk *task) execute(tup Tuple) {
	tk.executed.Add(1)
	tk.cur = tup
	tk.inflight = true
	tk.bolt.Execute(&tk.cur)
	tk.inflight = false
	tk.cur = Tuple{}
}

// drop is the supervisor's verdict on a tuple no bolt will finish: counted
// in failed, and not kept.
func (tk *task) drop() {
	tk.failed.Add(1)
	tk.cur = Tuple{}
}

// drainDead keeps a dead task's input queue moving: every tuple is dropped
// on arrival so upstream deliver calls never block.
func (tk *task) drainDead() {
	stop := tk.comp.top.stopped
	for {
		select {
		case <-stop:
			return
		case <-tk.in:
			tk.drop()
		}
	}
}

// fanOut routes values to every downstream subscriber of the component's
// stream. directTask >= 0 restricts direct-grouping routes to that task
// index.
//
//invalidb:hotpath
func (comp *component) fanOut(stream string, values Values, directTask int) {
	src := comp.srcs[stream]
	for _, r := range comp.routes[stream] {
		tasks := r.target.tasks
		switch r.sub.kind {
		case groupShuffle:
			if !comp.deliver(src, values, tasks[r.rr.Add(1)%uint64(len(tasks))]) {
				return
			}
		case groupFields:
			h := hashFields(values, r.sub.indexes)
			if !comp.deliver(src, values, tasks[h%uint64(len(tasks))]) {
				return
			}
		case groupBroadcast:
			for _, target := range tasks {
				if !comp.deliver(src, values, target) {
					return
				}
			}
		case groupDirect:
			if directTask < 0 {
				continue // non-direct emit skips direct routes
			}
			if !comp.deliver(src, values, tasks[directTask%len(tasks)]) {
				return
			}
		}
	}
}

// deliver sends one tuple to target by value, blocking while its queue is
// full. It reports false when the topology stopped.
//
//invalidb:hotpath
func (comp *component) deliver(src *source, values Values, target *task) bool {
	select {
	case target.in <- Tuple{src: src, Values: values}:
		return true
	case <-comp.top.stopped:
		return false
	}
}

// taskCollector implements Collector for one bolt task.
type taskCollector struct {
	task *task
}

func (c *taskCollector) Emit(values Values) {
	c.task.emit(DefaultStream, values, -1)
}

func (c *taskCollector) EmitStream(stream string, values Values) {
	c.task.emit(stream, values, -1)
}

func (c *taskCollector) EmitDirect(taskID int, values Values) {
	if taskID < 0 {
		taskID = 0
	}
	c.task.emit(DefaultStream, values, taskID)
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
