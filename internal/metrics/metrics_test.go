package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestLatencySummaryBasics(t *testing.T) {
	r := NewLatencyRecorder()
	for _, v := range []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10} {
		r.Record(ms(v))
	}
	s := r.Snapshot()
	if s.Count != 10 {
		t.Fatalf("Count = %d", s.Count)
	}
	if math.Abs(s.AvgMS-5.5) > 1e-9 {
		t.Fatalf("Avg = %v, want 5.5", s.AvgMS)
	}
	wantStd := math.Sqrt(8.25) // population stddev of 1..10
	if math.Abs(s.StdMS-wantStd) > 1e-9 {
		t.Fatalf("Std = %v, want %v", s.StdMS, wantStd)
	}
	if s.MaxMS != 10 {
		t.Fatalf("Max = %v", s.MaxMS)
	}
	if s.P50MS != 5 {
		t.Fatalf("P50 = %v, want 5 (nearest rank)", s.P50MS)
	}
	if s.P99MS != 10 {
		t.Fatalf("P99 = %v, want 10", s.P99MS)
	}
}

func TestLatencyP99Large(t *testing.T) {
	r := NewLatencyRecorder()
	for i := 1; i <= 1000; i++ {
		r.Record(ms(float64(i)))
	}
	s := r.Snapshot()
	if s.P99MS != 990 {
		t.Fatalf("P99 = %v, want 990", s.P99MS)
	}
	if s.P95MS != 950 {
		t.Fatalf("P95 = %v, want 950", s.P95MS)
	}
}

func TestLatencyEmptySnapshot(t *testing.T) {
	s := NewLatencyRecorder().Snapshot()
	if s.Count != 0 || s.AvgMS != 0 || s.P99MS != 0 {
		t.Fatalf("empty snapshot = %+v", s)
	}
}

func TestLatencyReset(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(ms(5))
	r.Reset()
	if r.Count() != 0 {
		t.Fatal("Reset did not clear samples")
	}
	r.Record(ms(1))
	if s := r.Snapshot(); s.MaxMS != 1 {
		t.Fatalf("max survived reset: %+v", s)
	}
}

func TestLatencyConcurrent(t *testing.T) {
	r := NewLatencyRecorder()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				r.Record(ms(1))
			}
		}()
	}
	wg.Wait()
	if r.Count() != 8000 {
		t.Fatalf("Count = %d", r.Count())
	}
}

// Regression: live-use recorders must not grow without bound with
// notification volume. A windowed recorder retains only the last N
// samples; Count and Max still cover the whole lifetime.
func TestWindowedRecorderBounded(t *testing.T) {
	r := NewWindowedLatencyRecorder(4)
	for _, v := range []float64{100, 100, 100, 1, 2, 3, 4} {
		r.Record(ms(v))
	}
	if got := len(r.samples); got != 4 {
		t.Fatalf("retained %d samples, want 4", got)
	}
	s := r.Snapshot()
	if s.Count != 7 {
		t.Fatalf("Count = %d, want lifetime 7", s.Count)
	}
	if s.MaxMS != 100 {
		t.Fatalf("MaxMS = %v, want lifetime max 100", s.MaxMS)
	}
	// Window stats describe only the retained samples {1,2,3,4}.
	if math.Abs(s.AvgMS-2.5) > 1e-9 {
		t.Fatalf("AvgMS = %v, want 2.5 over the window", s.AvgMS)
	}
	if s.P99MS != 4 {
		t.Fatalf("P99MS = %v, want 4", s.P99MS)
	}
	r.Reset()
	if r.Count() != 0 {
		t.Fatalf("Count after Reset = %d", r.Count())
	}
	r.Record(ms(9))
	if s := r.Snapshot(); s.Count != 1 || s.MaxMS != 9 {
		t.Fatalf("post-Reset snapshot = %+v", s)
	}
}

// The ring buffer is preallocated, so Record never allocates — the
// instrumented dispatch path stays on the PR 1 zero-alloc budget.
func TestWindowedRecorderRecordNoAllocs(t *testing.T) {
	r := NewWindowedLatencyRecorder(64)
	if n := testing.AllocsPerRun(1000, func() { r.Record(time.Millisecond) }); n != 0 {
		t.Fatalf("windowed Record allocates: %v allocs/op", n)
	}
}

func TestSummaryString(t *testing.T) {
	r := NewLatencyRecorder()
	r.Record(ms(9))
	if s := r.Snapshot().String(); s == "" {
		t.Fatal("empty summary string")
	}
}

func TestQuickPercentileBounds(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		r := NewLatencyRecorder()
		for _, v := range raw {
			r.Record(time.Duration(v) * time.Microsecond)
		}
		s := r.Snapshot()
		// Percentiles are order statistics: bounded by min/max, monotone.
		return s.P50MS <= s.P95MS+1e-12 && s.P95MS <= s.P99MS+1e-12 && s.P99MS <= s.MaxMS+1e-12 && s.AvgMS <= s.MaxMS+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram(10, 100)
	for _, v := range []float64{1, 5, 15, 95, 150} {
		h.Record(ms(v))
	}
	buckets, overflow := h.Buckets()
	if len(buckets) != 10 {
		t.Fatalf("bucket count = %d", len(buckets))
	}
	if buckets[0].Frequency != 0.4 { // 1 and 5
		t.Fatalf("bucket[0] = %v", buckets[0].Frequency)
	}
	if buckets[1].Frequency != 0.2 { // 15
		t.Fatalf("bucket[1] = %v", buckets[1].Frequency)
	}
	if buckets[9].Frequency != 0.2 { // 95
		t.Fatalf("bucket[9] = %v", buckets[9].Frequency)
	}
	if overflow != 0.2 { // 150
		t.Fatalf("overflow = %v", overflow)
	}
	if h.Total() != 5 {
		t.Fatalf("Total = %d", h.Total())
	}
}

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram(10, 100)
	buckets, overflow := h.Buckets()
	if buckets != nil || overflow != 0 {
		t.Fatal("empty histogram should return nil buckets")
	}
}

func TestHistogramFrequenciesSumToOne(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		h := NewHistogram(5, 50)
		for _, v := range raw {
			h.Record(time.Duration(v) * time.Microsecond * 100)
		}
		buckets, overflow := h.Buckets()
		sum := overflow
		for _, b := range buckets {
			sum += b.Frequency
		}
		return math.Abs(sum-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCounter(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("test.events")
	c.Add(5)
	c.Inc()
	if c.Value() != 6 {
		t.Fatalf("Value = %d", c.Value())
	}
	if r.Counter("test.events") != c {
		t.Fatal("Counter returned a second instrument for the same name")
	}
	c.Set(0)
	if c.Value() != 0 {
		t.Fatal("Set failed")
	}
}
