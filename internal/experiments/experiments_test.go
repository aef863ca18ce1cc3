package experiments

import (
	"strings"
	"testing"
	"time"
)

// fastCfg is a scaled-down configuration so shape tests finish in seconds.
func fastCfg() Config {
	return Config{
		NodeCapacity:       20_000,
		MatchingQueries:    10,
		TargetNotifsPerSec: 40,
		Warmup:             200 * time.Millisecond,
		Measure:            800 * time.Millisecond,
		Drain:              300 * time.Millisecond,
	}
}

func TestRunClusterPointHealthy(t *testing.T) {
	p, err := RunClusterPoint(fastCfg(), 1, 1, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !p.DeliveryOK() {
		t.Fatalf("low-load point lost notifications: %d/%d", p.Delivered, p.Expected)
	}
	if p.Summary.P99MS > 50 {
		t.Fatalf("low-load p99 = %.1fms, expected well under 50ms", p.Summary.P99MS)
	}
	if p.Expected < 10 {
		t.Fatalf("expected notifications = %d, workload generator broken?", p.Expected)
	}
}

// TestReadScalabilityShape is the paper's Figure 4 claim in miniature:
// a query load that saturates one query partition is sustained by two.
func TestReadScalabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability shapes take seconds")
	}
	cfg := fastCfg()
	// Per-node capacity at 1 000 ops/s is 20 queries; 30 overloads QP=1 by
	// 1.5x. With QP=4 the rows hold ~7-8 queries each (hash placement of a
	// small population is uneven, so a 4x grid leaves slack for skew).
	overload := 30
	one, err := RunClusterPoint(cfg, 1, 1, overload, BaseWriteRate)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunClusterPoint(cfg, 4, 1, overload, BaseWriteRate)
	if err != nil {
		t.Fatal(err)
	}
	if one.SustainedUnder(50) {
		t.Fatalf("QP=1 sustained an overload of %d queries (p99=%.1fms, %d/%d) — capacity model broken",
			overload, one.Summary.P99MS, one.Delivered, one.Expected)
	}
	if !four.SustainedUnder(50) {
		t.Fatalf("QP=4 failed at %d queries (p99=%.1fms, %d/%d) — read scalability missing",
			overload, four.Summary.P99MS, four.Delivered, four.Expected)
	}
}

// TestWriteScalabilityShape is Figure 5 in miniature: write throughput that
// saturates one write partition is sustained by four.
func TestWriteScalabilityShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scalability shapes take seconds")
	}
	cfg := fastCfg()
	const queries = 20 // per-node write capacity = 20k/20 = 1 000 ops/s
	overload := 2000
	one, err := RunClusterPoint(cfg, 1, 1, queries, overload)
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunClusterPoint(cfg, 1, 4, queries, overload)
	if err != nil {
		t.Fatal(err)
	}
	if one.SustainedUnder(50) {
		t.Fatalf("WP=1 sustained %d ops/s (p99=%.1fms, %d/%d) — capacity model broken",
			overload, one.Summary.P99MS, one.Delivered, one.Expected)
	}
	if !four.SustainedUnder(50) {
		t.Fatalf("WP=4 failed at %d ops/s (p99=%.1fms, %d/%d) — write scalability missing",
			overload, four.Summary.P99MS, four.Delivered, four.Expected)
	}
}

// TestQuaestorOverheadIsSmall is Figure 6a's claim: the application server
// adds a small, roughly constant latency overhead at moderate load.
func TestQuaestorOverheadIsSmall(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison points take seconds")
	}
	cfg := fastCfg()
	inv, err := RunClusterPoint(cfg, 1, 1, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	qst, err := RunQuaestorPoint(cfg, 1, 1, 10, 200)
	if err != nil {
		t.Fatal(err)
	}
	if !qst.DeliveryOK() {
		t.Fatalf("quaestor lost notifications at low load: %d/%d", qst.Delivered, qst.Expected)
	}
	overhead := qst.Summary.AvgMS - inv.Summary.AvgMS
	if overhead > 20 {
		t.Fatalf("app server overhead = %.1fms avg, expected small (inv %.1f, qst %.1f)",
			overhead, inv.Summary.AvgMS, qst.Summary.AvgMS)
	}
}

// TestAppServerWriteCeiling is Figure 6b's claim: the single application
// server caps write throughput below what the cluster itself sustains.
func TestAppServerWriteCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("comparison points take seconds")
	}
	cfg := fastCfg()
	cfg.AppServerWriteCapacity = 500
	const queries = 10 // cluster write capacity: 20k/10 = 2 000 ops/s
	rate := 1200       // beyond the app server's 500, within the cluster's 2 000
	inv, err := RunClusterPoint(cfg, 1, 1, queries, rate)
	if err != nil {
		t.Fatal(err)
	}
	qst, err := RunQuaestorPoint(cfg, 1, 1, queries, rate)
	if err != nil {
		t.Fatal(err)
	}
	if !inv.SustainedUnder(100) {
		t.Fatalf("standalone cluster failed below its capacity (p99=%.1fms %d/%d)",
			inv.Summary.P99MS, inv.Delivered, inv.Expected)
	}
	if qst.SustainedUnder(100) {
		t.Fatalf("quaestor sustained %d ops/s despite a %d ops/s app-server ceiling",
			rate, cfg.AppServerWriteCapacity)
	}
}

func TestBaselinesComparison(t *testing.T) {
	if testing.Short() {
		t.Skip("baseline comparison takes seconds")
	}
	cfg := fastCfg()
	results, err := Baselines(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	byName := map[string]BaselineResult{}
	for _, r := range results {
		byName[r.Mechanism] = r
	}
	inv := byName["InvaliDB (4 write partitions)"]
	lt := byName["Log tailing (single node)"]
	pd := byName["Poll-and-diff"]
	if !inv.Point.SustainedUnder(baselineSLA) {
		t.Fatalf("InvaliDB did not sustain the comparison load: p99=%.1fms %d/%d",
			inv.Point.Summary.P99MS, inv.Point.Delivered, inv.Point.Expected)
	}
	if lt.Point.SustainedUnder(baselineSLA) {
		t.Fatalf("log tailing sustained a load beyond single-node capacity: p99=%.1fms %d/%d",
			lt.Point.Summary.P99MS, lt.Point.Delivered, lt.Point.Expected)
	}
	// Poll-and-diff staleness averages around half the poll interval.
	if pd.Point.Summary.AvgMS < 50 {
		t.Fatalf("poll-and-diff avg staleness = %.1fms; expected lag in the order of the %v interval",
			pd.Point.Summary.AvgMS, scaledPollInterval)
	}
	out := RenderBaselines(results)
	if !strings.Contains(out, "Poll-and-diff") {
		t.Fatal("render lost a mechanism")
	}
}

func TestRenderers(t *testing.T) {
	sweeps := []Sweep{{Partitions: 1, Sustained: map[float64]int{20: 100, 50: 150}},
		{Partitions: 2, Sustained: map[float64]int{20: 200, 50: 300}}}
	if s := RenderSweeps("Fig 4", "QP", "queries", sweeps); !strings.Contains(s, "p99< 20ms") {
		t.Fatalf("sweep render: %s", s)
	}
	pts := []Point{{QP: 1, Queries: 100}}
	if s := RenderTable3("Table 3a", pts, true); !strings.Contains(s, "1 QP") {
		t.Fatalf("table render: %s", s)
	}
	pairs := []Fig6Pair{{Level: 500}}
	if s := RenderFig6("Fig 6a", "queries", pairs); !strings.Contains(s, "500") {
		t.Fatalf("fig6 render: %s", s)
	}
	if s := RenderTable2(); !strings.Contains(s, "Scales with write TP") {
		t.Fatalf("table2 render: %s", s)
	}
}

func TestDefaults(t *testing.T) {
	c := Config{}.Defaults()
	if c.NodeCapacity != 150_000 || c.MatchingQueries != 40 {
		t.Fatalf("defaults: %+v", c)
	}
}
