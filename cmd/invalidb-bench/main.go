// Command invalidb-bench regenerates the paper's evaluation: every figure
// and table of §6 (InvaliDB cluster performance) and §7 (Quaestor server
// performance), plus the §3.1 mechanism comparison and the Table 2
// capability matrix.
//
// Absolute numbers are scaled to one machine (matching nodes run on a
// configurable match-operation budget; see DESIGN.md), but the shapes match
// the paper: sustainable query count grows linearly with query partitions,
// sustainable write throughput grows linearly with write partitions, latency
// stays flat across cluster sizes, and the application server adds a small
// constant overhead while capping write throughput.
//
// Usage:
//
//	invalidb-bench -exp fig4
//	invalidb-bench -exp all -capacity 50000 -measure 1s -partitions 1,2,4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"invalidb/internal/experiments"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment: fig4|fig5|table3a|table3b|fig6a|fig6b|fig6c|fig6d|baselines|breakdown|table2|spatiotext|backfill|resize|fanout|all")
		capacity   = flag.Int("capacity", 50_000, "matching-node budget in match-ops/s (paper testbed: ~1.6M)")
		measure    = flag.Duration("measure", time.Second, "measurement phase per point (paper: 1m)")
		warmup     = flag.Duration("warmup", 300*time.Millisecond, "warmup phase per point")
		notifs     = flag.Int("notifs", 50, "matching notifications per second (latency samples)")
		partitions = flag.String("partitions", "1,2,4,8", "cluster sizes to sweep")
		verbose    = flag.Bool("v", false, "print per-point progress")
		fanClients = flag.Int("fanout-clients", experiments.FanoutClients, "fanout: concurrent mock clients")
		fanQueries = flag.Int("fanout-queries", experiments.FanoutQueries, "fanout: distinct queries the clients share")
		fanRate    = flag.Int("fanout-rate", experiments.FanoutEventRate, "fanout: sustained writes per second")
		fanNoisy   = flag.Bool("fanout-noisy", true, "fanout: add a quota-capped noisy tenant mid-run")
	)
	flag.Parse()

	cfg := experiments.Config{
		NodeCapacity:       *capacity,
		Measure:            *measure,
		Warmup:             *warmup,
		TargetNotifsPerSec: *notifs,
	}
	parts, err := parseInts(*partitions)
	if err != nil {
		fatal(err)
	}
	progress := func(string) {}
	if *verbose {
		progress = func(s string) { fmt.Fprintln(os.Stderr, "  "+s) }
	}

	run := func(name string) {
		start := time.Now()
		switch name {
		case "table2":
			fmt.Println(experiments.RenderTable2())
		case "fig4":
			sweeps, err := experiments.Fig4(cfg, parts, nil, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderSweeps(
				"Figure 4 — read scalability: sustainable real-time queries by query partitions (1 000 ops/s fixed)",
				"QP", "concurrent queries", sweeps))
		case "fig5":
			sweeps, err := experiments.Fig5(cfg, parts, nil, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderSweeps(
				fmt.Sprintf("Figure 5 — write scalability: sustainable write throughput by write partitions (%d queries fixed)", experiments.FixedQueries),
				"WP", "ops/s", sweeps))
		case "table3a":
			pts, err := experiments.Table3a(cfg, parts)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderTable3(
				"Table 3a — read-heavy latency at ~80% capacity (1 000 ops/s fixed)", pts, true))
		case "table3b":
			pts, err := experiments.Table3b(cfg, parts)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderTable3(
				fmt.Sprintf("Table 3b — write-heavy latency at ~66%% capacity (%d queries fixed)", experiments.FixedQueries), pts, false))
		case "fig6a":
			qp := parts[len(parts)-1]
			levels := fig6aLevels(cfg, qp)
			pairs, err := experiments.Fig6a(cfg, qp, levels, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderFig6(
				fmt.Sprintf("Figure 6a — Quaestor vs standalone InvaliDB under query load (%d QP, 1 WP, 1 000 ops/s)", qp),
				"queries", pairs))
		case "fig6b":
			wp := parts[len(parts)-1]
			levels := fig6bLevels(cfg, wp)
			pairs, err := experiments.Fig6b(cfg, wp, levels, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderFig6(
				fmt.Sprintf("Figure 6b — Quaestor vs standalone InvaliDB under write load (1 QP, %d WP, %d queries)", wp, experiments.FixedQueries),
				"ops/s", pairs))
		case "fig6c":
			qp := parts[len(parts)-1]
			pair, err := experiments.Fig6c(cfg, qp)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderHistogram(
				"Figure 6c — latency distribution, read-heavy snapshot", pair))
		case "fig6d":
			wp := parts[len(parts)-1]
			pair, err := experiments.Fig6d(cfg, wp)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderHistogram(
				"Figure 6d — latency distribution, write-heavy snapshot", pair))
		case "spatiotext":
			// The generalized predicate index under a mixed equality/geo/text
			// population (not a paper figure; see DESIGN.md §11). Unthrottled
			// matching nodes: the numbers are real CPU cost, not the budget
			// simulation, so this run takes a few minutes.
			results, err := experiments.SpatioTextComparison(cfg,
				experiments.SpatioTextQueries, experiments.SpatioTextBaseRate,
				experiments.SpatioTextHighRate, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderSpatioText(results))
		case "backfill":
			// Subscription admission throughput under sustained writes:
			// one-shot scan-and-race bootstrap vs watermark-certified chunked
			// backfill (not a paper figure; see DESIGN.md §12). Unthrottled
			// matching nodes — real CPU and protocol cost.
			results, err := experiments.BackfillComparison(cfg,
				experiments.BackfillDocs, experiments.BackfillGroups,
				experiments.BackfillWriteRate, experiments.BackfillSubscribers, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderBackfill(results))
		case "resize":
			// Live grid resize on a multi-process deployment: notification
			// continuity and per-phase latency while a coordinator grows the
			// query-partition axis under sustained writes (not a paper
			// figure; see DESIGN.md §13).
			progress(fmt.Sprintf("resize: 2x2 -> 3x2 under %d writes/s", experiments.ResizeWriteRate))
			p, err := experiments.RunResizePoint(cfg, experiments.ResizeWriteRate)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderResize(p))
		case "fanout":
			// Shared-subscription edge fan-out: a mock-client swarm over an
			// in-process listener proves delivery cost scales with distinct
			// queries, not clients (not a paper figure; see DESIGN.md §14).
			p, err := experiments.RunFanoutPoint(cfg, experiments.FanoutConfig{
				Clients:   *fanClients,
				Queries:   *fanQueries,
				EventRate: *fanRate,
				Noisy:     *fanNoisy,
			}, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderFanout(p))
		case "baselines":
			results, err := experiments.Baselines(cfg, progress)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderBaselines(results))
		case "breakdown":
			// Moderate load on the largest swept cluster so the stages are
			// measured away from saturation.
			size := parts[len(parts)-1]
			c := cfg.Defaults()
			inv, err := experiments.RunClusterPoint(cfg, size, size, experiments.FixedQueries, c.NodeCapacity/(2*experiments.FixedQueries)*size)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderBreakdown(
				"Stage breakdown — standalone InvaliDB (ingest / grid / bus)", inv))
			qst, err := experiments.RunQuaestorPoint(cfg, size, size, experiments.FixedQueries, c.NodeCapacity/(2*experiments.FixedQueries)*size)
			if err != nil {
				fatal(err)
			}
			fmt.Println(experiments.RenderBreakdown(
				"Stage breakdown — through Quaestor appserver (ingest / grid / bus / appserver)", qst))
		default:
			fatal(fmt.Errorf("unknown experiment %q", name))
		}
		fmt.Fprintf(os.Stderr, "[%s finished in %v]\n\n", name, time.Since(start).Round(time.Second))
	}

	if *exp == "all" {
		for _, name := range []string{"table2", "fig4", "fig5", "table3a", "table3b", "fig6a", "fig6b", "fig6c", "fig6d", "baselines", "breakdown"} {
			run(name)
		}
		return
	}
	run(*exp)
}

// fig6aLevels builds the query-load axis: fractions of the cluster's
// capacity, like the paper's 500..32k sweep.
func fig6aLevels(cfg experiments.Config, qp int) []int {
	cfg = cfg.Defaults()
	max := qp * cfg.NodeCapacity / experiments.BaseWriteRate
	var levels []int
	for _, f := range []float64{0.25, 0.5, 0.75, 0.9} {
		levels = append(levels, int(f*float64(max)))
	}
	return levels
}

func fig6bLevels(cfg experiments.Config, wp int) []int {
	cfg = cfg.Defaults()
	max := wp * cfg.NodeCapacity / experiments.FixedQueries
	var levels []int
	for _, f := range []float64{0.25, 0.5, 0.75, 0.9} {
		levels = append(levels, int(f*float64(max)))
	}
	return levels
}

func parseInts(csv string) ([]int, error) {
	var out []int
	for _, part := range strings.Split(csv, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("invalid partition count %q", part)
		}
		out = append(out, n)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no partition counts")
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "invalidb-bench:", err)
	os.Exit(1)
}
