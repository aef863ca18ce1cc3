package experiments

import (
	"fmt"
	"time"
)

// BaseWriteRate is the fixed write throughput of the read-scalability
// experiments (paper Figure 4: 1 000 ops/s).
const BaseWriteRate = 1000

// FixedQueries is the fixed query population of the write-scalability
// experiments, scaled from the paper's 1 000 active real-time queries.
const FixedQueries = 100

// DefaultPartitions is the paper's cluster size axis.
var DefaultPartitions = []int{1, 2, 4, 8, 16}

// countWrites is the length of a Figure 4/5 count pass.
const countWrites = 4000

// Scaling is one cluster size's row of Figure 4 or 5.
type Scaling struct {
	Partitions int
	// Sustainable is the load — concurrent queries for Figure 4, ops/s for
	// Figure 5 — at which the busiest matching cell spends exactly
	// Config.NodeCapacity match-ops per second.
	Sustainable int
	// Skew is the busiest cell's cost over the mean cell's: what hash
	// placement leaves on the table.
	Skew float64
}

// perNodeQueryCapacity estimates how many queries one matching node
// sustains at the base write rate: capacity / writes-per-node-per-second.
func perNodeQueryCapacity(cfg Config, opsPerSec int) int {
	return cfg.NodeCapacity / opsPerSec
}

// Fig4 reproduces the read-scalability experiment (paper Figure 4): for each
// query partition count, the number of real-time queries sustainable at a
// fixed write throughput of 1 000 ops/s. The paper raised the query
// population until the p99 latency SLA broke; under the node budget that
// point is where the busiest cell's match-ops reach NodeCapacity, so it is
// counted rather than searched for: one unthrottled pass per size with the
// population the uniform estimate predicts, scaled by the busiest cell's
// measured cost.
func Fig4(cfg Config, partitions []int) ([]Scaling, error) {
	cfg = cfg.Defaults()
	if len(partitions) == 0 {
		partitions = DefaultPartitions
	}
	var out []Scaling
	for _, qp := range partitions {
		queries := qp * perNodeQueryCapacity(cfg, BaseWriteRate)
		perWrite, skew, err := countPass(cfg, qp, 1, queries)
		if err != nil {
			return nil, err
		}
		// The busiest cell spends perWrite x BaseWriteRate match-ops/s at this
		// population, perWrite x BaseWriteRate / queries per query.
		perQuery := perWrite * BaseWriteRate / float64(queries)
		out = append(out, Scaling{Partitions: qp, Sustainable: int(float64(cfg.NodeCapacity) / perQuery), Skew: skew})
	}
	return out, nil
}

// Fig5 reproduces the write-scalability experiment (paper Figure 5): for
// each write partition count, the write throughput sustainable with a fixed
// population of active real-time queries, counted like Fig4.
func Fig5(cfg Config, partitions []int) ([]Scaling, error) {
	cfg = cfg.Defaults()
	if len(partitions) == 0 {
		partitions = DefaultPartitions
	}
	var out []Scaling
	for _, wp := range partitions {
		perWrite, skew, err := countPass(cfg, 1, wp, FixedQueries)
		if err != nil {
			return nil, err
		}
		// One op/s costs the busiest cell perWrite match-ops/s.
		out = append(out, Scaling{Partitions: wp, Sustainable: int(float64(cfg.NodeCapacity) / perWrite), Skew: skew})
	}
	return out, nil
}

// Table3a reproduces the read-heavy latency table (paper Table 3a): latency
// statistics at ~80% of capacity — `0.8 x capacity` queries per query
// partition at 1 000 ops/s.
func Table3a(cfg Config, partitions []int) ([]Point, error) {
	cfg = cfg.Defaults()
	if len(partitions) == 0 {
		partitions = DefaultPartitions
	}
	perNode := perNodeQueryCapacity(cfg, BaseWriteRate)
	var out []Point
	for _, qp := range partitions {
		queries := int(0.8 * float64(qp*perNode))
		p, err := RunClusterPoint(cfg, qp, 1, queries, BaseWriteRate)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Table3b reproduces the write-heavy latency table (paper Table 3b): a fixed
// query population with ~66% of per-partition write capacity per write
// partition.
func Table3b(cfg Config, partitions []int) ([]Point, error) {
	cfg = cfg.Defaults()
	if len(partitions) == 0 {
		partitions = DefaultPartitions
	}
	perNodeRate := cfg.NodeCapacity / FixedQueries
	var out []Point
	for _, wp := range partitions {
		rate := int(0.66 * float64(wp*perNodeRate))
		p, err := RunClusterPoint(cfg, 1, wp, FixedQueries, rate)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

// Fig6Pair holds matched standalone-InvaliDB and Quaestor measurements at
// one load level.
type Fig6Pair struct {
	Level    int
	InvaliDB Point
	Quaestor Point
}

// Fig6a compares change-notification latency with and without the
// application server under increasing query load (paper Figure 6a; the
// paper's deployment was 16 QP x 1 WP at 1 000 ops/s).
func Fig6a(cfg Config, qp int, levels []int, progress func(string)) ([]Fig6Pair, error) {
	cfg = cfg.Defaults()
	var out []Fig6Pair
	for _, level := range levels {
		inv, err := RunClusterPoint(cfg, qp, 1, level, BaseWriteRate)
		if err != nil {
			return nil, err
		}
		qst, err := RunQuaestorPoint(cfg, qp, 1, level, BaseWriteRate)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(fmt.Sprintf("queries=%d invalidb p99=%.1fms quaestor p99=%.1fms",
				level, inv.Summary.P99MS, qst.Summary.P99MS))
		}
		out = append(out, Fig6Pair{Level: level, InvaliDB: inv, Quaestor: qst})
	}
	return out, nil
}

// Fig6b compares latency under increasing write throughput (paper Figure
// 6b; 1 QP x 16 WP, 1 000 active queries): the application server's write
// path caps Quaestor throughput while standalone InvaliDB keeps scaling.
func Fig6b(cfg Config, wp int, levels []int, progress func(string)) ([]Fig6Pair, error) {
	cfg = cfg.Defaults()
	var out []Fig6Pair
	for _, level := range levels {
		inv, err := RunClusterPoint(cfg, 1, wp, FixedQueries, level)
		if err != nil {
			return nil, err
		}
		qst, err := RunQuaestorPoint(cfg, 1, wp, FixedQueries, level)
		if err != nil {
			return nil, err
		}
		if progress != nil {
			progress(fmt.Sprintf("ops/s=%d invalidb p99=%.1fms quaestor p99=%.1fms (delivered %d/%d vs %d/%d)",
				level, inv.Summary.P99MS, qst.Summary.P99MS,
				inv.Delivered, inv.Expected, qst.Delivered, qst.Expected))
		}
		out = append(out, Fig6Pair{Level: level, InvaliDB: inv, Quaestor: qst})
	}
	return out, nil
}

// Fig6c measures the latency distributions of the read-heavy snapshot
// (paper Figure 6c: 24 000 queries at 1 000 ops/s — here the scaled ~80%
// capacity point of the given cluster).
func Fig6c(cfg Config, qp int) (Fig6Pair, error) {
	cfg = cfg.Defaults()
	queries := int(0.8 * float64(qp*perNodeQueryCapacity(cfg, BaseWriteRate)))
	inv, err := RunClusterPoint(cfg, qp, 1, queries, BaseWriteRate)
	if err != nil {
		return Fig6Pair{}, err
	}
	qst, err := RunQuaestorPoint(cfg, qp, 1, queries, BaseWriteRate)
	if err != nil {
		return Fig6Pair{}, err
	}
	return Fig6Pair{Level: queries, InvaliDB: inv, Quaestor: qst}, nil
}

// Fig6d measures the latency distributions of the write-heavy snapshot
// (paper Figure 6d: 5 000 ops/s with 1 000 queries — here ~80% of the
// cluster's write capacity).
func Fig6d(cfg Config, wp int) (Fig6Pair, error) {
	cfg = cfg.Defaults()
	rate := int(0.8 * float64(wp*cfg.NodeCapacity/FixedQueries))
	inv, err := RunClusterPoint(cfg, 1, wp, FixedQueries, rate)
	if err != nil {
		return Fig6Pair{}, err
	}
	qst, err := RunQuaestorPoint(cfg, 1, wp, FixedQueries, rate)
	if err != nil {
		return Fig6Pair{}, err
	}
	return Fig6Pair{Level: rate, InvaliDB: inv, Quaestor: qst}, nil
}

// BaselineResult summarizes one mechanism's behaviour under the comparison
// workload (paper §3.1 / Table 2 scaling rows).
type BaselineResult struct {
	Mechanism string
	Point     Point
	// Note captures mechanism-specific observations (poll staleness, DB
	// query overhead, tailer lag).
	Note string
}

// hitLatencySLA for baseline keep-up checks (generous: the question is
// whether the mechanism collapses, not its exact latency).
const baselineSLA = 100.0

// Baselines contrasts InvaliDB's write scalability against the log-tailing
// single-node bottleneck at a write rate beyond one node's capacity, and
// quantifies poll-and-diff's staleness and database overhead at the same
// query population.
func Baselines(cfg Config, progress func(string)) ([]BaselineResult, error) {
	cfg = cfg.Defaults()
	perNodeRate := cfg.NodeCapacity / FixedQueries
	rate := 2 * perNodeRate // beyond a single node, within a 4-partition cluster
	var out []BaselineResult

	inv, err := RunClusterPoint(cfg, 1, 4, FixedQueries, rate)
	if err != nil {
		return nil, err
	}
	out = append(out, BaselineResult{
		Mechanism: "InvaliDB (4 write partitions)",
		Point:     inv,
		Note:      fmt.Sprintf("sustained=%v", inv.SustainedUnder(baselineSLA)),
	})
	if progress != nil {
		progress("invalidb done")
	}

	lt, err := runLogTailingPoint(cfg, rate)
	if err != nil {
		return nil, err
	}
	out = append(out, lt)
	if progress != nil {
		progress("log tailing done")
	}

	pd, err := runPollAndDiffPoint(cfg)
	if err != nil {
		return nil, err
	}
	out = append(out, pd)
	if progress != nil {
		progress("poll-and-diff done")
	}
	return out, nil
}

// scaledPollInterval is the poll-and-diff interval used in the comparison —
// scaled down from Meteor's 10s default the same way measurement phases are.
const scaledPollInterval = 500 * time.Millisecond
