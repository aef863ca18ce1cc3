// Package metrics provides the latency and throughput instrumentation the
// benchmark harness uses to reproduce the paper's measurements: streaming
// latency recorders with average / standard deviation / percentile / max
// statistics (Table 3) and bucketed distributions (Figure 6c/6d).
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// DefaultLatencyWindow is the ring-buffer capacity Registry.Latency uses
// for live recorders: large enough that a paper-scale run (~1000
// notifications) keeps exact percentiles, small enough that a recorder is
// a fixed 64KB no matter how long the process runs.
const DefaultLatencyWindow = 8192

// LatencyRecorder accumulates duration samples. It is safe for concurrent
// use. In exact mode (NewLatencyRecorder) it keeps every sample — the
// paper's experiments collect ~1000 notifications per run, so exact
// percentiles are affordable. In windowed mode (NewWindowedLatencyRecorder)
// it keeps only the most recent window samples in a preallocated ring
// buffer, so memory stays fixed in a long-running daemon and Record never
// allocates.
type LatencyRecorder struct {
	mu      sync.Mutex
	window  int // 0 = exact mode: keep every sample
	samples []time.Duration
	next    int    // ring cursor once a bounded buffer is full
	count   uint64 // samples recorded since Reset (≥ len(samples))
	max     time.Duration
}

// NewLatencyRecorder creates an empty exact-mode recorder that retains
// every sample (bench-harness use; unbounded).
func NewLatencyRecorder() *LatencyRecorder {
	return &LatencyRecorder{}
}

// NewWindowedLatencyRecorder creates a recorder that retains only the most
// recent window samples (live daemon use; fixed memory). A window < 1
// selects DefaultLatencyWindow. The buffer is preallocated so Record is
// allocation-free from the first sample.
func NewWindowedLatencyRecorder(window int) *LatencyRecorder {
	if window < 1 {
		window = DefaultLatencyWindow
	}
	return &LatencyRecorder{window: window, samples: make([]time.Duration, 0, window)}
}

// Record adds one sample. Windowed recorders evict the oldest retained
// sample once full.
//
//invalidb:hotpath
func (r *LatencyRecorder) Record(d time.Duration) {
	r.mu.Lock()
	r.count++
	if d > r.max {
		r.max = d
	}
	if r.window > 0 && len(r.samples) == r.window {
		r.samples[r.next] = d
		r.next++
		if r.next == r.window {
			r.next = 0
		}
	} else {
		r.samples = append(r.samples, d)
	}
	r.mu.Unlock()
}

// Count returns the number of samples recorded since the last Reset,
// including any evicted from a windowed recorder's buffer.
func (r *LatencyRecorder) Count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(r.count)
}

// Reset clears all samples.
func (r *LatencyRecorder) Reset() {
	r.mu.Lock()
	r.samples = r.samples[:0]
	r.next, r.count, r.max = 0, 0, 0
	r.mu.Unlock()
}

// Summary is a snapshot of latency statistics in milliseconds — the exact
// columns of the paper's Table 3 (average, standard deviation, 99th
// percentile, maximum). For a windowed recorder, Avg/Std/percentiles
// describe the retained window (the most recent samples) while Count and
// Max cover the recorder's whole lifetime since Reset.
type Summary struct {
	Count int
	AvgMS float64
	StdMS float64
	P50MS float64
	P95MS float64
	P99MS float64
	MaxMS float64
}

// Snapshot computes the summary of all samples recorded so far.
func (r *LatencyRecorder) Snapshot() Summary {
	r.mu.Lock()
	n := len(r.samples)
	if n == 0 {
		r.mu.Unlock()
		return Summary{}
	}
	samples := append([]time.Duration(nil), r.samples...)
	count, max := r.count, r.max
	r.mu.Unlock()

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	var sum float64
	for _, s := range samples {
		sum += float64(s) / float64(time.Millisecond)
	}
	mean := sum / float64(n)
	// Two-pass variance over the copied samples. The naive sumSq/n − mean²
	// form cancels catastrophically for tight distributions around a large
	// mean (e.g. thousands of ~36µs samples offset by a constant), which the
	// old `variance < 0` clamp silently papered over as std=0.
	var variance float64
	for _, s := range samples {
		dev := float64(s)/float64(time.Millisecond) - mean
		variance += dev * dev
	}
	variance /= float64(n)
	return Summary{
		Count: int(count),
		AvgMS: mean,
		StdMS: math.Sqrt(variance),
		P50MS: percentile(samples, 0.50),
		P95MS: percentile(samples, 0.95),
		P99MS: percentile(samples, 0.99),
		MaxMS: float64(max) / float64(time.Millisecond),
	}
}

// percentile computes the pth percentile (0..1) of sorted samples using the
// nearest-rank method, in milliseconds.
func percentile(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return float64(sorted[rank]) / float64(time.Millisecond)
}

// String renders the summary as the paper's table row format.
func (s Summary) String() string {
	return fmt.Sprintf("avg=%.1fms std=%.1fms p99=%.1fms max=%.0fms (n=%d)",
		s.AvgMS, s.StdMS, s.P99MS, s.MaxMS, s.Count)
}

// Histogram buckets latency samples for distribution plots (Figure 6c/6d).
type Histogram struct {
	// BucketMS is the bucket width in milliseconds.
	BucketMS float64
	// UpperMS is the inclusive upper bound; samples beyond it land in the
	// overflow bucket.
	UpperMS float64

	mu       sync.Mutex
	buckets  []uint64
	overflow uint64
	total    uint64
}

// NewHistogram creates a histogram with the given bucket width and range.
func NewHistogram(bucketMS, upperMS float64) *Histogram {
	n := int(math.Ceil(upperMS / bucketMS))
	if n < 1 {
		n = 1
	}
	return &Histogram{BucketMS: bucketMS, UpperMS: upperMS, buckets: make([]uint64, n)}
}

// Record adds a sample.
//
//invalidb:hotpath
func (h *Histogram) Record(d time.Duration) {
	ms := float64(d) / float64(time.Millisecond)
	h.mu.Lock()
	idx := int(ms / h.BucketMS)
	if idx < 0 {
		// Cross-node stage timestamps can produce negative durations under
		// clock skew; clamp them into the first bucket instead of panicking.
		idx = 0
	}
	if idx >= len(h.buckets) {
		h.overflow++
	} else {
		h.buckets[idx]++
	}
	h.total++
	h.mu.Unlock()
}

// Bucket is one histogram bar: the bucket's lower bound in milliseconds and
// the relative frequency of samples in it.
type Bucket struct {
	LowerMS   float64
	Frequency float64
}

// Buckets returns the normalized distribution (frequencies sum to 1 across
// buckets plus overflow).
func (h *Histogram) Buckets() (buckets []Bucket, overflow float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.total == 0 {
		return nil, 0
	}
	out := make([]Bucket, len(h.buckets))
	for i, c := range h.buckets {
		out[i] = Bucket{LowerMS: float64(i) * h.BucketMS, Frequency: float64(c) / float64(h.total)}
	}
	return out, float64(h.overflow) / float64(h.total)
}

// Total returns the sample count.
func (h *Histogram) Total() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.total
}
