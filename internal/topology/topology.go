// Package topology is a from-scratch stream-processing runtime modeled on
// Apache Storm, the system the InvaliDB prototype used for workload
// distribution (paper §5.4). It is a supervised dataflow graph: spouts and
// bolts with configurable parallelism, tuple routing through
// shuffle/fields/broadcast/direct groupings over bounded queues, and panic
// recovery with bounded restarts. It is not a delivery protocol: a tuple in
// flight at a panic, or sent to a dead task, is dropped and counted
// (TaskStats.Failed); InvaliDB repairs loss end to end (retention replay,
// certified backfill, re-subscription), never by tuple replay. InvaliDB's
// filtering and sorting stages are expressed as bolts on this runtime.
package topology

import "fmt"

// Values are the positional payload of a tuple.
type Values []any

// DefaultStream is the stream id used when a component emits without naming
// a stream, mirroring Storm's "default" stream.
const DefaultStream = "default"

// Tuple is one data item flowing through the topology.
//
// A *Tuple is valid for the duration of Execute; Values may be kept.
type Tuple struct {
	src *source
	// Values is the positional payload, aligned with the emitting
	// component's declared output fields for the stream.
	Values Values
}

// source is what every tuple of one (component, stream) pair shares. The
// runtime builds one per declared stream and never mutates it, so a tuple
// carries a pointer instead of copies.
type source struct {
	component string
	stream    string
	fields    []string
}

// Component returns the id of the component that emitted the tuple.
func (t *Tuple) Component() string { return t.src.component }

// Stream returns the named output stream the tuple was emitted on.
func (t *Tuple) Stream() string { return t.src.stream }

// Get returns the value of a named output field.
func (t *Tuple) Get(field string) (any, bool) {
	for i, f := range t.src.fields {
		if f == field && i < len(t.Values) {
			return t.Values[i], true
		}
	}
	return nil, false
}

// SpoutContext is handed to a spout at open time.
type SpoutContext struct {
	// TaskID is this instance's index within the component's parallelism.
	TaskID int
	// Emit injects a new tuple into the topology. It blocks while a
	// downstream queue is full (back-pressure) and returns early on stop.
	Emit func(values Values)
	// Done is closed when the topology stops.
	Done <-chan struct{}
}

// Spout produces the topology's input. The runtime calls Next in a loop on
// the spout's task goroutine and does nothing else in between, so Next must
// block: it emits what the source has ready (at most a few tuples) and
// returns, or — when there is nothing — parks in one select over the source
// and ctx.Done and returns as soon as either fires. There is no polling and
// no back-off: a parked spout costs no wake-ups, and input is emitted the
// moment it arrives.
type Spout interface {
	Open(ctx *SpoutContext) error
	Next()
	Close()
}

// BoltContext is handed to a bolt at prepare time.
type BoltContext struct {
	TaskID int
	// Incarnation counts supervisor restarts of this task: 0 for the
	// original instance, 1 for the first replacement, and so on. Bolts
	// that stamp outgoing data with an identity should include it so
	// downstream consumers can tell a restarted instance's fresh state
	// (e.g. reset sequence counters) from stale duplicates.
	Incarnation int
	// Meta carries the component's per-task placement metadata, produced
	// by the TaskMeta declaration hook (nil when none was declared). It is
	// stable across supervisor restarts: a replacement instance receives
	// the same Meta as the original, so state derived from it (e.g. a
	// matching bolt's grid-cell coordinates) survives recovery.
	Meta any
}

// Collector lets a bolt emit tuples downstream.
type Collector interface {
	// Emit sends values downstream on the default stream.
	Emit(values Values)
	// EmitStream sends values on a named output stream.
	EmitStream(stream string, values Values)
	// EmitDirect sends values to one specific task of every component
	// subscribed to the default stream with direct grouping.
	EmitDirect(taskID int, values Values)
}

// Bolt processes tuples. The input tuple is valid only until Execute returns
// (see Tuple).
type Bolt interface {
	Prepare(ctx *BoltContext, out Collector) error
	Execute(t *Tuple)
	Cleanup()
}

// IdleBolt is an optional extension of Bolt: the runtime calls Idle on the
// task goroutine whenever the input queue drains, giving batching bolts a
// bounded flush point without timers. Under sustained load batches fill to
// their size cap; the moment the queue empties, Idle flushes the remainder,
// so batching never adds unbounded latency.
type IdleBolt interface {
	Bolt
	Idle()
}

// groupingKind enumerates Storm's stream groupings.
type groupingKind int

const (
	groupShuffle groupingKind = iota
	groupFields
	groupBroadcast
	groupDirect
)

type subscription struct {
	from    string
	stream  string
	kind    groupingKind
	fields  []string
	indexes []int // resolved field indexes into the upstream declaration
}

type componentDef struct {
	id          string
	parallelism int
	outputs     map[string][]string // stream -> declared fields
	spout       func() Spout
	bolt        func() Bolt
	taskMeta    func(taskID int) any
	subs        []subscription
}

// Builder assembles a topology definition.
type Builder struct {
	components map[string]*componentDef
	order      []string
	err        error
}

// NewBuilder creates an empty topology builder.
func NewBuilder() *Builder {
	return &Builder{components: map[string]*componentDef{}}
}

func (b *Builder) add(def *componentDef) {
	if b.err != nil {
		return
	}
	if def.id == "" {
		b.err = fmt.Errorf("topology: empty component id")
		return
	}
	if _, dup := b.components[def.id]; dup {
		b.err = fmt.Errorf("topology: duplicate component %q", def.id)
		return
	}
	if def.parallelism <= 0 {
		b.err = fmt.Errorf("topology: component %q: parallelism must be positive", def.id)
		return
	}
	b.components[def.id] = def
	b.order = append(b.order, def.id)
}

// SetSpout registers a spout component. The factory is invoked once per
// task. Output fields name the default stream's tuple positions for fields
// grouping.
func (b *Builder) SetSpout(id string, factory func() Spout, parallelism int, outputFields ...string) {
	b.add(&componentDef{
		id: id, parallelism: parallelism, spout: factory,
		outputs: map[string][]string{DefaultStream: outputFields},
	})
}

// BoltDecl continues a bolt declaration with grouping subscriptions.
type BoltDecl struct {
	b   *Builder
	def *componentDef
}

// SetBolt registers a bolt component and returns a declaration to attach
// groupings and extra output streams to.
func (b *Builder) SetBolt(id string, factory func() Bolt, parallelism int, outputFields ...string) *BoltDecl {
	def := &componentDef{
		id: id, parallelism: parallelism, bolt: factory,
		outputs: map[string][]string{DefaultStream: outputFields},
	}
	b.add(def)
	return &BoltDecl{b: b, def: def}
}

// TaskMeta declares a placement-metadata hook for the bolt: fn is invoked
// once per task at prepare time (and again for each supervisor restart,
// with the same task id) and its result is delivered via BoltContext.Meta.
// It lets the topology owner hand each task its position in an external
// scheme — e.g. a matching bolt's grid-cell coordinates — without the bolt
// reverse-engineering them from TaskID.
func (d *BoltDecl) TaskMeta(fn func(taskID int) any) *BoltDecl {
	d.def.taskMeta = fn
	return d
}

// DeclareStream declares an additional named output stream with its fields,
// mirroring Storm's OutputFieldsDeclarer.declareStream.
func (d *BoltDecl) DeclareStream(stream string, fields ...string) *BoltDecl {
	d.def.outputs[stream] = fields
	return d
}

// ShuffleGrouping subscribes the bolt to a component's default stream with
// round-robin distribution.
func (d *BoltDecl) ShuffleGrouping(from string) *BoltDecl {
	d.def.subs = append(d.def.subs, subscription{from: from, stream: DefaultStream, kind: groupShuffle})
	return d
}

// FieldsGrouping subscribes with hash partitioning on the named upstream
// fields: tuples with equal field values always reach the same task.
func (d *BoltDecl) FieldsGrouping(from string, fields ...string) *BoltDecl {
	return d.FieldsGroupingStream(from, DefaultStream, fields...)
}

// FieldsGroupingStream is FieldsGrouping on a named stream.
func (d *BoltDecl) FieldsGroupingStream(from, stream string, fields ...string) *BoltDecl {
	d.def.subs = append(d.def.subs, subscription{from: from, stream: stream, kind: groupFields, fields: fields})
	return d
}

// BroadcastGrouping subscribes with replication to every task.
func (d *BoltDecl) BroadcastGrouping(from string) *BoltDecl {
	d.def.subs = append(d.def.subs, subscription{from: from, stream: DefaultStream, kind: groupBroadcast})
	return d
}

// DirectGrouping subscribes with sender-chosen task routing (EmitDirect) on
// the default stream.
func (d *BoltDecl) DirectGrouping(from string) *BoltDecl {
	d.def.subs = append(d.def.subs, subscription{from: from, stream: DefaultStream, kind: groupDirect})
	return d
}

// maxTaskRestarts bounds how many times the supervisor replaces a panicking
// task with a fresh component instance before marking the task dead (a dead
// bolt task keeps draining and dropping its input so upstream never blocks).
// A restarted task has lost its state; TaskStats.Restarts is how whoever
// owns that state finds out.
const maxTaskRestarts = 3

// Build validates the definition and instantiates a runnable topology whose
// tasks have input queues of queueSize tuples (zero selects 1024).
func (b *Builder) Build(queueSize int) (*Topology, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.components) == 0 {
		return nil, fmt.Errorf("topology: no components")
	}
	if queueSize <= 0 {
		queueSize = 1024
	}
	hasSpout := false
	for _, id := range b.order {
		def := b.components[id]
		if def.spout != nil {
			hasSpout = true
			if len(def.subs) > 0 {
				return nil, fmt.Errorf("topology: spout %q cannot subscribe to streams", id)
			}
			continue
		}
		if len(def.subs) == 0 {
			return nil, fmt.Errorf("topology: bolt %q has no input grouping", id)
		}
		for i := range def.subs {
			sub := &def.subs[i]
			up, ok := b.components[sub.from]
			if !ok {
				return nil, fmt.Errorf("topology: bolt %q subscribes to unknown component %q", id, sub.from)
			}
			streamFields, declared := up.outputs[sub.stream]
			if !declared {
				return nil, fmt.Errorf("topology: bolt %q subscribes to undeclared stream %q of %q", id, sub.stream, sub.from)
			}
			if sub.kind == groupFields {
				if len(sub.fields) == 0 {
					return nil, fmt.Errorf("topology: bolt %q: fields grouping on %q without fields", id, sub.from)
				}
				for _, f := range sub.fields {
					idx := fieldIndex(streamFields, f)
					if idx < 0 {
						return nil, fmt.Errorf("topology: bolt %q: stream %q of %q does not declare output field %q", id, sub.stream, sub.from, f)
					}
					sub.indexes = append(sub.indexes, idx)
				}
			}
		}
	}
	if !hasSpout {
		return nil, fmt.Errorf("topology: no spout")
	}
	return newTopology(b, queueSize)
}

func fieldIndex(fields []string, name string) int {
	for i, f := range fields {
		if f == name {
			return i
		}
	}
	return -1
}
