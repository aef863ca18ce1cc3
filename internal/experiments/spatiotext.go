package experiments

import (
	"fmt"
	"strings"

	"invalidb/internal/loadgen"
)

// Defaults for the spatio-textual hot-region scenario (see
// internal/loadgen/spatiotext.go): a six-figure standing-query population
// split across the equality, geo, and text index families, probed by writes
// skewed toward a hot region and hot topic set.
const (
	// SpatioTextQueries is the standing-query population for the full
	// `-exp spatiotext` run.
	SpatioTextQueries = 100_000
	// SpatioTextBaseRate is the write rate both modes are compared at: low
	// enough that even the unindexed full scan (queries × writes filter
	// evaluations) can keep up, so its grid-stage latency is an honest
	// per-write matching cost rather than queueing collapse.
	SpatioTextBaseRate = 4
	// SpatioTextHighRate is the write rate only the indexed mode sustains
	// (the unindexed full scan costs ~360ms of matching per write at this
	// population, so it cannot absorb even a handful of writes per second).
	SpatioTextHighRate = 800
)

// RunSpatioTextPoint measures the spatio-textual scenario on a 1x1 grid.
// Unlike the paper-shaped points, the matching node runs unthrottled
// (NodeCapacity 0): the point of this scenario is the real CPU cost of the
// matching stage — candidate probe plus filter evaluations — not the
// simulated per-node budget.
func RunSpatioTextPoint(cfg Config, queries, opsPerSec int, indexed bool) (Point, error) {
	cfg = cfg.Defaults()
	matching := cfg.MatchingQueries
	if matching > queries {
		matching = queries
	}
	st := loadgen.NewSpatioText(1, matching)
	opts := clusterOptions(cfg, 1, 1)
	opts.NodeCapacity = 0
	opts.EnableQueryIndex = indexed
	return runPoint(cfg, opts, st, loadgen.SpatioTextCollection, queries, matching, opsPerSec)
}

// SpatioTextResult labels one measured mode of the comparison.
type SpatioTextResult struct {
	Label string
	Point Point
}

// SpatioTextComparison runs the scenario three ways over the same query
// population: unindexed at the base rate (the full-scan baseline), indexed
// at the base rate (same load, candidate-sized probes), and indexed at the
// high rate (a load the full scan cannot absorb at all).
func SpatioTextComparison(cfg Config, queries, baseRate, highRate int, progress func(string)) ([]SpatioTextResult, error) {
	if progress == nil {
		progress = func(string) {}
	}
	runs := []struct {
		label   string
		rate    int
		indexed bool
	}{
		{"unindexed (full scan)", baseRate, false},
		{"indexed", baseRate, true},
		{"indexed", highRate, true},
	}
	var out []SpatioTextResult
	for _, r := range runs {
		progress(fmt.Sprintf("spatiotext: %s @ %d ops/s, %d queries", r.label, r.rate, queries))
		p, err := RunSpatioTextPoint(cfg, queries, r.rate, r.indexed)
		if err != nil {
			return nil, err
		}
		out = append(out, SpatioTextResult{Label: r.label, Point: p})
	}
	return out, nil
}

// RenderSpatioText prints the before/after table: candidate-set size per
// write against the registered population, and where the latency went.
func RenderSpatioText(results []SpatioTextResult) string {
	var b strings.Builder
	if len(results) == 0 {
		return ""
	}
	queries := results[0].Point.Queries
	fmt.Fprintf(&b, "Spatio-textual hot region — generalized predicate index (%d standing queries: equality/geo/text thirds)\n", queries)
	fmt.Fprintf(&b, "%-22s %7s %8s %12s %10s %10s %10s %9s %11s\n",
		"mode", "ops/s", "writes", "cand/write", "cand %", "grid avg", "grid p99", "e2e p99", "delivered")
	for _, r := range results {
		p := r.Point
		share := 0.0
		if p.Queries > 0 {
			share = p.CandidatesPerWrite() / float64(p.Queries) * 100
		}
		fmt.Fprintf(&b, "%-22s %7d %8d %12.1f %9.3f%% %8.2fms %8.2fms %7.1fms %5d/%-5d\n",
			r.Label, p.OpsPerSec, p.Work.Writes, p.CandidatesPerWrite(), share,
			p.Breakdown.Grid.AvgMS, p.Breakdown.Grid.P99MS, p.Summary.P99MS,
			p.Delivered, p.Expected)
	}
	return b.String()
}
