package experiments

import (
	"fmt"
	"strings"
)

// RenderScaling prints a Figure 4/5-style table: the sustainable load per
// cluster size under the node budget, and the busiest cell's share.
func RenderScaling(title, axis, unit string, rows []Scaling) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %12s %16s\n", axis, "sustainable", "busiest / mean")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-12d %12d %16.2f\n", r.Partitions, r.Sustainable, r.Skew)
	}
	fmt.Fprintf(&b, "(levels in %s, from counted cell work; a node budget gives every p99 SLA the same level)\n", unit)
	return b.String()
}

// RenderTable3 prints a Table 3-style latency table.
func RenderTable3(title string, points []Point, readHeavy bool) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-28s %8s %10s %8s %8s\n", "configuration", "avg", "std.dev.", "99%", "max")
	for _, p := range points {
		var label string
		if readHeavy {
			label = fmt.Sprintf("%d QP, %d queries", p.QP, p.Queries)
		} else {
			label = fmt.Sprintf("%d WP, %d ops/s", p.WP, p.OpsPerSec)
		}
		s := p.Summary
		fmt.Fprintf(&b, "%-28s %7.1fms %9.1fms %7.1fms %7.0fms\n",
			label, s.AvgMS, s.StdMS, s.P99MS, s.MaxMS)
	}
	return b.String()
}

// RenderFig6 prints a Figure 6a/6b-style comparison of p99 latencies.
func RenderFig6(title, axis string, pairs []Fig6Pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%-12s %16s %16s %12s\n", axis, "InvaliDB p99", "Quaestor p99", "overhead")
	for _, p := range pairs {
		inv, qst := p.InvaliDB.Summary.P99MS, p.Quaestor.Summary.P99MS
		note := ""
		if !p.Quaestor.DeliveryOK() {
			note = " (app server saturated)"
		} else if !p.InvaliDB.DeliveryOK() {
			note = " (cluster saturated)"
		}
		fmt.Fprintf(&b, "%-12d %14.1fms %14.1fms %9.1fms%s\n", p.Level, inv, qst, qst-inv, note)
	}
	return b.String()
}

// RenderHistogram prints a Figure 6c/6d-style latency distribution as an
// ASCII bar chart.
func RenderHistogram(title string, pair Fig6Pair) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (level %d)\n", title, pair.Level)
	render := func(name string, p Point) {
		fmt.Fprintf(&b, "%s: n=%d avg=%.1fms p99=%.1fms\n",
			name, p.Summary.Count, p.Summary.AvgMS, p.Summary.P99MS)
		if p.Hist == nil {
			return
		}
		buckets, overflow := p.Hist.Buckets()
		for _, bk := range buckets {
			if bk.Frequency == 0 {
				continue
			}
			bar := strings.Repeat("#", int(bk.Frequency*120))
			fmt.Fprintf(&b, "  %5.0f-%3.0fms %5.1f%% %s\n",
				bk.LowerMS, bk.LowerMS+p.Hist.BucketMS, bk.Frequency*100, bar)
		}
		if overflow > 0 {
			fmt.Fprintf(&b, "  >%8.0fms %5.1f%%\n", p.Hist.UpperMS, overflow*100)
		}
	}
	render("InvaliDB  ", pair.InvaliDB)
	render("Quaestor  ", pair.Quaestor)
	return b.String()
}

// RenderBreakdown prints the per-stage latency decomposition of a measured
// point: where the end-to-end notification latency is spent (write ingestion,
// matching grid, event-layer delivery, appserver dispatch). The standalone
// deployment has no appserver hop, so that row stays empty for it.
func RenderBreakdown(title string, p Point) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", title)
	fmt.Fprintf(&b, "%d QP x %d WP, %d queries, %d ops/s: end-to-end avg=%.1fms p99=%.1fms (n=%d)\n",
		p.QP, p.WP, p.Queries, p.OpsPerSec, p.Summary.AvgMS, p.Summary.P99MS, p.Summary.Count)
	b.WriteString(p.Breakdown.String())
	if p.Work.Writes > 0 {
		perWrite := p.CandidatesPerWrite()
		share := 0.0
		if p.Queries > 0 {
			share = perWrite / float64(p.Queries) * 100
		}
		fmt.Fprintf(&b, "query index selectivity: %.1f candidates/write (%.3f%% of %d queries), %d evaluated, %d matched over %d writes\n",
			perWrite, share, p.Queries, p.Work.Evaluated, p.Work.Matched, p.Work.Writes)
	}
	return b.String()
}

// RenderBaselines prints the mechanism comparison (paper §3.1 / Table 2
// scaling rows).
func RenderBaselines(results []BaselineResult) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Real-time query mechanisms under identical workloads\n")
	fmt.Fprintf(&b, "%-32s %10s %10s %12s  %s\n", "mechanism", "avg", "p99", "delivered", "notes")
	for _, r := range results {
		s := r.Point.Summary
		fmt.Fprintf(&b, "%-32s %8.1fms %8.1fms %6d/%-5d  %s\n",
			r.Mechanism, s.AvgMS, s.P99MS, r.Point.Delivered, r.Point.Expected, r.Note)
	}
	return b.String()
}

// RenderTable2 prints the capability matrix (paper Table 2). The InvaliDB
// column reflects behaviour demonstrated by this repository's test suite;
// the baseline columns reflect the implemented mechanisms; the Firebase
// column quotes the paper's documentation-derived entries.
func RenderTable2() string {
	rows := []struct {
		capability string
		pollDiff   string
		logTail    string
		firebase   string
		invalidb   string
	}{
		{"Scales with write TP", "yes", "NO (single node)", "no (1k writes/s cap)", "yes (+write partitions)"},
		{"Scales with # queries", "NO (poll load)", "yes", "partly (100k conns)", "yes (+query partitions)"},
		{"Lag-free notifications", "NO (poll interval)", "yes", "yes", "yes"},
		{"Composition (AND/OR)", "yes", "yes", "partly (no OR)", "yes"},
		{"Ordering", "yes", "yes", "partly (single attr)", "yes (multi-attribute)"},
		{"Limit", "yes", "yes", "yes", "yes"},
		{"Offset", "yes", "yes", "partly (value-based)", "yes"},
	}
	var b strings.Builder
	fmt.Fprintf(&b, "Table 2: real-time query implementations compared\n")
	fmt.Fprintf(&b, "%-24s %-18s %-18s %-22s %-24s\n", "capability", "poll-and-diff", "log tailing", "Firebase (paper)", "InvaliDB (this repo)")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-24s %-18s %-18s %-22s %-24s\n", r.capability, r.pollDiff, r.logTail, r.firebase, r.invalidb)
	}
	return b.String()
}
