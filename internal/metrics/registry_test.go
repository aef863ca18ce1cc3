package metrics

import (
	"bytes"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"
	"time"
)

// Regression: a negative duration (real under cross-node clock skew) used
// to compute a negative bucket index and panic with "index out of range".
func TestHistogramNegativeDuration(t *testing.T) {
	h := NewHistogram(10, 100)
	h.Record(-5 * time.Millisecond) // panicked before the clamp
	h.Record(3 * time.Millisecond)
	buckets, overflow := h.Buckets()
	if overflow != 0 {
		t.Fatalf("overflow = %v", overflow)
	}
	if buckets[0].Frequency != 1.0 { // both samples clamp into bucket 0
		t.Fatalf("bucket[0] = %v, want 1.0", buckets[0].Frequency)
	}
	if h.Total() != 2 {
		t.Fatalf("Total = %d", h.Total())
	}
}

// Regression: variance via sumSq/n − mean² cancels catastrophically for a
// tight distribution around a large mean. With ~1h-offset samples spread
// ±1µs, the naive form loses all significant digits and the old `< 0`
// clamp reported std=0; the two-pass form recovers the true spread.
func TestSnapshotVarianceCancellation(t *testing.T) {
	r := NewLatencyRecorder()
	base := time.Hour // large constant offset, ~3.6e6 ms
	for i := 0; i < 999; i++ {
		off := time.Duration(i%3-1) * time.Microsecond // -1µs, 0, +1µs uniformly
		r.Record(base + off)
	}
	s := r.Snapshot()
	// True population std: offsets are {-1µs,0,+1µs} uniformly → std = sqrt(2/3)µs.
	wantStd := math.Sqrt(2.0/3.0) * 1e-3 // in ms
	if math.Abs(s.StdMS-wantStd)/wantStd > 1e-6 {
		t.Fatalf("StdMS = %v, want %v (naive sumSq form cancels to 0 or garbage)", s.StdMS, wantStd)
	}
}

func TestSnapshotNegativeSamples(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(-2 * time.Millisecond)
	r.Record(2 * time.Millisecond)
	s := r.Snapshot()
	if s.Count != 2 || s.AvgMS != 0 {
		t.Fatalf("snapshot = %+v", s)
	}
	if math.Abs(s.StdMS-2) > 1e-9 {
		t.Fatalf("StdMS = %v, want 2", s.StdMS)
	}
}

func TestRegistryCounterGaugeText(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.writes")
	c.Add(3)
	c.Inc()
	if r.Counter("test.writes") != c {
		t.Fatal("Counter must return the same instance per name")
	}
	r.Gauge("test.depth", func() float64 { return 7.5 })
	r.Text("test.last_panic", func() string { return "boom" })
	r.Text("test.empty", func() string { return "" })
	r.Collect(func(emit func(string, float64)) {
		emit("session.a.dropped", 2)
	})
	snap := r.Snapshot()
	if snap.Counters["test.writes"] != 4 {
		t.Fatalf("writes = %d", snap.Counters["test.writes"])
	}
	if snap.Gauges["test.depth"] != 7.5 {
		t.Fatalf("depth = %v", snap.Gauges["test.depth"])
	}
	if snap.Gauges["session.a.dropped"] != 2 {
		t.Fatalf("collector gauge = %v", snap.Gauges["session.a.dropped"])
	}
	if snap.Texts["test.last_panic"] != "boom" {
		t.Fatalf("texts = %v", snap.Texts)
	}
	if _, ok := snap.Texts["test.empty"]; ok {
		t.Fatal("empty text values should be omitted")
	}
}

// A series name is checked once, when first registered: only lowercase
// dotted names are accepted.
func TestRegistryRejectsUndottedName(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("registering an undotted series name did not panic")
		}
	}()
	NewRegistry().Counter("writes")
}

func TestRegistryLatencyAndReset(t *testing.T) {
	r := NewRegistry()
	r.Latency("test.e2e").Record(5 * time.Millisecond)
	r.Counter("test.n").Add(9)
	if s := r.Snapshot(); s.Latencies["test.e2e"].Count != 1 {
		t.Fatalf("latency count = %d", s.Latencies["test.e2e"].Count)
	}
	r.Reset()
	s := r.Snapshot()
	if s.Counters["test.n"] != 0 || s.Latencies["test.e2e"].Count != 0 {
		t.Fatalf("Reset left state: %+v", s)
	}
}

func TestRegistryWriters(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Add(1)
	r.Gauge("test.g", func() float64 { return 2 })
	r.Latency("test.l").Record(time.Millisecond)

	var jsonBuf bytes.Buffer
	if err := r.WriteJSON(&jsonBuf); err != nil {
		t.Fatal(err)
	}
	var decoded RegistrySnapshot
	if err := json.Unmarshal(jsonBuf.Bytes(), &decoded); err != nil {
		t.Fatalf("WriteJSON output not valid JSON: %v", err)
	}
	if decoded.Counters["a.b"] != 1 {
		t.Fatalf("decoded counters = %v", decoded.Counters)
	}

	var textBuf bytes.Buffer
	if err := r.WriteText(&textBuf); err != nil {
		t.Fatal(err)
	}
	text := textBuf.String()
	for _, want := range []string{"a.b 1", "test.g 2", "test.l_count 1"} {
		if !strings.Contains(text, want) {
			t.Fatalf("WriteText missing %q in:\n%s", want, text)
		}
	}
}

func TestRegistryStagesAndBreakdown(t *testing.T) {
	r := NewRegistry()
	base := time.Now().UnixNano()
	r.RecordStages(base, base+1e6, base+3e6, base+4e6, base+6e6)
	b := r.Breakdown()
	if b.Ingest.Count != 1 || math.Abs(b.Ingest.AvgMS-1) > 1e-9 {
		t.Fatalf("ingest = %+v", b.Ingest)
	}
	if math.Abs(b.Grid.AvgMS-2) > 1e-9 {
		t.Fatalf("grid = %+v", b.Grid)
	}
	if math.Abs(b.Bus.AvgMS-1) > 1e-9 {
		t.Fatalf("bus = %+v", b.Bus)
	}
	if math.Abs(b.Appserver.AvgMS-2) > 1e-9 {
		t.Fatalf("appserver = %+v", b.Appserver)
	}
	if !strings.Contains(b.String(), "grid") {
		t.Fatal("Breakdown.String missing stage row")
	}

	// Missing stamps skip only the stages they bound.
	r2 := NewRegistry()
	r2.RecordStages(0, base, base+1e6, base+2e6, base+3e6)
	if b2 := r2.Breakdown(); b2.Ingest.Count != 0 || b2.Grid.Count != 1 {
		t.Fatalf("partial stamps = %+v", b2)
	}
}

// Satellite: parallel Record/Snapshot/Reset under -race.
func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	r.Gauge("test.depth", func() float64 { return 1 })
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("test.writes")
			l := r.Latency("test.e2e")
			for i := 0; i < 2000; i++ {
				c.Inc()
				l.Record(time.Duration(i) * time.Microsecond)
				r.RecordStages(1, 2, 3, 4, 5)
			}
		}(w)
	}
	wg.Add(2)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				r.Snapshot()
				r.Counter("test.writes") // concurrent get-or-create
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			r.Reset()
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	wg.Wait()
	r.Snapshot() // must not race or panic
}

// Regression: registry latency recorders are windowed, so a long-running
// daemon recording per-notification stage samples holds a fixed-size
// buffer instead of growing ~32B per notification forever.
func TestRegistryLatencyIsWindowed(t *testing.T) {
	r := NewRegistry()
	l := r.Latency("test.e2e")
	// Overfill past the window: the old samples must be evicted.
	for i := 0; i < DefaultLatencyWindow; i++ {
		l.Record(100 * time.Millisecond)
	}
	for i := 0; i < DefaultLatencyWindow; i++ {
		l.Record(time.Millisecond)
	}
	if got := len(l.samples); got != DefaultLatencyWindow {
		t.Fatalf("retained %d samples, want window %d", got, DefaultLatencyWindow)
	}
	s := l.Snapshot()
	if s.Count != 2*DefaultLatencyWindow {
		t.Fatalf("Count = %d, want lifetime %d", s.Count, 2*DefaultLatencyWindow)
	}
	if s.AvgMS != 1 { // the 100ms samples were all evicted
		t.Fatalf("AvgMS = %v, want 1 over the retained window", s.AvgMS)
	}
	if s.MaxMS != 100 { // lifetime max survives eviction
		t.Fatalf("MaxMS = %v, want 100", s.MaxMS)
	}
}

// RecordStages runs per delivered notification: it must not allocate and
// must not touch the registry mutex (the stage recorders are pre-resolved
// fields), so it cannot contend with concurrent Snapshot/scrapes.
func TestRecordStagesHotPathNoAllocs(t *testing.T) {
	r := NewRegistry()
	if n := testing.AllocsPerRun(1000, func() { r.RecordStages(1, 2, 3, 4, 5) }); n != 0 {
		t.Fatalf("RecordStages allocates: %v allocs/op", n)
	}
}

// The per-event instrumentation path must stay allocation-free so it can
// sit on the PR 1 zero-alloc hot path.
func TestCounterHotPathNoAllocs(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.hot")
	if n := testing.AllocsPerRun(1000, func() { c.Inc(); c.Add(3) }); n != 0 {
		t.Fatalf("Int.Add allocates: %v allocs/op", n)
	}
}

// BenchmarkCounterInc measures the registry's hot-path instrument: a single
// pre-resolved counter increment. It must stay allocation-free so the PR 1
// zero-allocation routing guarantees survive instrumentation.
func BenchmarkCounterInc(b *testing.B) {
	c := NewRegistry().Counter("bench.counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}
