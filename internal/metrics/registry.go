package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"regexp"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// name is a metric series name. It is unexported, so from another package
// only an untyped constant converts to it: a key built at runtime — from a
// remote address, a session, a query ID — does not compile. One series per
// constant name keeps scrape output stable and bounded; per-entity families
// go through Registry.Collect instead.
type name string

// namePattern is the required shape of a series name: lowercase dotted
// segments ("cluster.writes_ingested").
var namePattern = regexp.MustCompile(`^[a-z][a-z0-9_]*(\.[a-z0-9_]+)+$`)

// register checks n's shape the first time a registry sees it.
func (n name) register() string {
	if !namePattern.MatchString(string(n)) {
		panic(fmt.Sprintf("metrics: series name %q is not lowercase dotted (want e.g. \"layer.metric_name\")", string(n)))
	}
	return string(n)
}

// Int is a registry counter. The hot path (Add/Inc) is a single atomic
// add — no locks, no allocations — so instrumented code stays on the
// zero-alloc fast path established in PR 1.
type Int struct {
	v atomic.Int64
}

// Add increments the counter by delta.
//
//invalidb:hotpath
func (i *Int) Add(delta int64) { i.v.Add(delta) }

// Inc increments the counter by one.
//
//invalidb:hotpath
func (i *Int) Inc() { i.v.Add(1) }

// Set overwrites the counter value.
func (i *Int) Set(v int64) { i.v.Store(v) }

// Value returns the current value.
func (i *Int) Value() int64 { return i.v.Load() }

// Registry aggregates named counters, gauges, latency recorders, and
// dynamic collectors from every layer of the system. Lookup
// (Counter/Latency/...) takes a mutex and may allocate, so components
// resolve their instruments once at construction time and hold the
// returned pointers; the per-event path is then purely atomic.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Int
	gauges     map[string]func() float64
	texts      map[string]func() string
	latencies  map[string]*LatencyRecorder
	collectors []func(emit func(name string, v float64))

	// The four pipeline-stage recorders are resolved once at construction
	// so RecordStages — which runs per delivered notification — never
	// takes the registry mutex or contends with Snapshot/scrapes.
	stageIngest    *LatencyRecorder
	stageGrid      *LatencyRecorder
	stageBus       *LatencyRecorder
	stageAppserver *LatencyRecorder
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{
		counters:  make(map[string]*Int),
		gauges:    make(map[string]func() float64),
		texts:     make(map[string]func() string),
		latencies: make(map[string]*LatencyRecorder),
	}
	r.stageIngest = r.Latency(StageIngest)
	r.stageGrid = r.Latency(StageGrid)
	r.stageBus = r.Latency(StageBus)
	r.stageAppserver = r.Latency(StageAppserver)
	return r
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(n name) *Int {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[string(n)]
	if !ok {
		c = &Int{}
		r.counters[n.register()] = c
	}
	return c
}

// Gauge registers a callback sampled at snapshot time. Gauges cost
// nothing on the hot path: the callback runs only when /metrics or
// Snapshot is read. Re-registering a name replaces the callback.
func (r *Registry) Gauge(n name, fn func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.gauges[string(n)]; !ok {
		n.register()
	}
	r.gauges[string(n)] = fn
}

// Text registers a string-valued callback (e.g. a last-panic message),
// sampled at snapshot time.
func (r *Registry) Text(n name, fn func() string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.texts[string(n)]; !ok {
		n.register()
	}
	r.texts[string(n)] = fn
}

// Latency returns the named latency recorder, creating it on first use.
// Registry recorders are windowed (DefaultLatencyWindow most-recent
// samples) so a long-running daemon's memory stays bounded regardless of
// notification volume; the bench harness uses NewLatencyRecorder directly
// where exact all-sample percentiles are required.
func (r *Registry) Latency(n name) *LatencyRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	l, ok := r.latencies[string(n)]
	if !ok {
		l = NewWindowedLatencyRecorder(DefaultLatencyWindow)
		r.latencies[n.register()] = l
	}
	return l
}

// Collect registers a callback that emits a dynamic family of gauges at
// snapshot time — e.g. one value per broker session or per topology
// task, where the member set changes at runtime.
func (r *Registry) Collect(fn func(emit func(name string, v float64))) {
	r.mu.Lock()
	r.collectors = append(r.collectors, fn)
	r.mu.Unlock()
}

// RegistrySnapshot is a point-in-time view of every instrument. Gauge
// values include both registered gauges and collector-emitted families.
type RegistrySnapshot struct {
	Counters  map[string]int64   `json:"counters"`
	Gauges    map[string]float64 `json:"gauges"`
	Texts     map[string]string  `json:"texts,omitempty"`
	Latencies map[string]Summary `json:"latencies,omitempty"`
}

// Snapshot samples all counters, gauges, texts, latency recorders, and
// collectors.
func (r *Registry) Snapshot() RegistrySnapshot {
	r.mu.Lock()
	counters := make(map[string]*Int, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]func() float64, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	texts := make(map[string]func() string, len(r.texts))
	for k, v := range r.texts {
		texts[k] = v
	}
	latencies := make(map[string]*LatencyRecorder, len(r.latencies))
	for k, v := range r.latencies {
		latencies[k] = v
	}
	collectors := make([]func(emit func(name string, v float64)), len(r.collectors))
	copy(collectors, r.collectors)
	r.mu.Unlock()

	snap := RegistrySnapshot{
		Counters:  make(map[string]int64, len(counters)),
		Gauges:    make(map[string]float64, len(gauges)),
		Texts:     make(map[string]string),
		Latencies: make(map[string]Summary, len(latencies)),
	}
	for k, c := range counters {
		snap.Counters[k] = c.Value()
	}
	for k, fn := range gauges {
		snap.Gauges[k] = fn()
	}
	for k, fn := range texts {
		if s := fn(); s != "" {
			snap.Texts[k] = s
		}
	}
	for k, l := range latencies {
		snap.Latencies[k] = l.Snapshot()
	}
	for _, fn := range collectors {
		fn(func(name string, v float64) { snap.Gauges[name] = v })
	}
	return snap
}

// Reset zeroes all counters and latency recorders. Gauges and
// collectors read live state and are unaffected.
func (r *Registry) Reset() {
	r.mu.Lock()
	counters := make([]*Int, 0, len(r.counters))
	for _, c := range r.counters {
		counters = append(counters, c)
	}
	latencies := make([]*LatencyRecorder, 0, len(r.latencies))
	for _, l := range r.latencies {
		latencies = append(latencies, l)
	}
	r.mu.Unlock()
	for _, c := range counters {
		c.Set(0)
	}
	for _, l := range latencies {
		l.Reset()
	}
}

// WriteJSON writes the snapshot as expvar-style JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteText writes the snapshot as sorted "name value" lines.
func (r *Registry) WriteText(w io.Writer) error {
	snap := r.Snapshot()
	lines := make([]string, 0, len(snap.Counters)+len(snap.Gauges)+len(snap.Latencies)+len(snap.Texts))
	for k, v := range snap.Counters {
		lines = append(lines, fmt.Sprintf("%s %d", k, v))
	}
	for k, v := range snap.Gauges {
		lines = append(lines, fmt.Sprintf("%s %g", k, v))
	}
	for k, s := range snap.Latencies {
		lines = append(lines, fmt.Sprintf("%s_count %d", k, s.Count))
		lines = append(lines, fmt.Sprintf("%s_avg_ms %g", k, s.AvgMS))
		lines = append(lines, fmt.Sprintf("%s_p99_ms %g", k, s.P99MS))
		lines = append(lines, fmt.Sprintf("%s_max_ms %g", k, s.MaxMS))
	}
	for k, v := range snap.Texts {
		lines = append(lines, fmt.Sprintf("%s %q", k, v))
	}
	sort.Strings(lines)
	for _, l := range lines {
		if _, err := fmt.Fprintln(w, l); err != nil {
			return err
		}
	}
	return nil
}

// Stage recorder names used for the per-write pipeline breakdown. Each
// stage is bounded by the timestamps stamped on the write as it crosses
// the corresponding boundary (see core.Notification).
const (
	StageIngest    = "stage.ingest"    // client send → write-ingest bolt
	StageGrid      = "stage.grid"      // write-ingest → matching-node emit
	StageBus       = "stage.bus"       // matching-node emit → subscriber receive
	StageAppserver = "stage.appserver" // subscriber receive → client delivery
)

// RecordStages records one sample for each pipeline stage from the raw
// nanosecond stamps carried on a notification. A zero stamp means the
// stage boundary was not observed (e.g. a resync-originated
// notification) and the stages touching it are skipped. Negative
// durations from cross-node clock skew are recorded as-is — the
// histogram clamps, and the recorder tolerates them. The stage recorders
// are pre-resolved fields, so this path never takes the registry mutex.
//
//invalidb:hotpath
func (r *Registry) RecordStages(writeNs, ingestNs, matchNs, recvNs, deliverNs int64) {
	if writeNs != 0 && ingestNs != 0 {
		r.stageIngest.Record(time.Duration(ingestNs - writeNs))
	}
	if ingestNs != 0 && matchNs != 0 {
		r.stageGrid.Record(time.Duration(matchNs - ingestNs))
	}
	if matchNs != 0 && recvNs != 0 {
		r.stageBus.Record(time.Duration(recvNs - matchNs))
	}
	if recvNs != 0 && deliverNs != 0 {
		r.stageAppserver.Record(time.Duration(deliverNs - recvNs))
	}
}

// Breakdown summarizes where notification latency is spent, stage by
// stage, instead of one opaque end-to-end number.
type Breakdown struct {
	Ingest    Summary `json:"ingest"`
	Grid      Summary `json:"grid"`
	Bus       Summary `json:"bus"`
	Appserver Summary `json:"appserver"`
}

// Breakdown snapshots the four stage recorders.
func (r *Registry) Breakdown() Breakdown {
	return Breakdown{
		Ingest:    r.stageIngest.Snapshot(),
		Grid:      r.stageGrid.Snapshot(),
		Bus:       r.stageBus.Snapshot(),
		Appserver: r.stageAppserver.Snapshot(),
	}
}

// String renders the breakdown as one aligned row per stage.
func (b Breakdown) String() string {
	row := func(name string, s Summary) string {
		return fmt.Sprintf("  %-10s avg=%8.3fms  p99=%8.3fms  max=%8.3fms  (n=%d)\n",
			name, s.AvgMS, s.P99MS, s.MaxMS, s.Count)
	}
	return "stage latency breakdown:\n" +
		row("ingest", b.Ingest) +
		row("grid", b.Grid) +
		row("bus", b.Bus) +
		row("appserver", b.Appserver)
}
