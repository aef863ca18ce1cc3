package core

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
	"time"

	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
)

// TestCellWorkCounts is the paper's scaling claim (§6, Figures 4 and 5) as
// arithmetic rather than latency: each matching cell probes the queries of
// its row against the writes of its column, so a QP x WP grid splits the
// Q x W work of one node across its cells, and the busiest cell — the one a
// node budget saturates first — carries about 1/(QP·WP) of it. A fixed,
// seeded workload runs through every grid of up to 4 x 4, with the query
// index off and on, and the cells' counts must add up exactly.
func TestCellWorkCounts(t *testing.T) {
	const (
		queries = 48  // disjoint ranges [10i, 10i+10) on n
		writes  = 240 // inserts of fresh keys
	)
	rng := rand.New(rand.NewPCG(42, 0))
	values := make([]int64, writes)
	hits := 0
	for i := range values {
		if rng.IntN(2) == 0 {
			values[i] = int64(rng.IntN(10 * queries)) // inside exactly one range
			hits++
		} else {
			values[i] = int64(10*queries + rng.IntN(1000)) // above every range
		}
	}
	for _, indexed := range []bool{false, true} {
		for _, qp := range []int{1, 2, 4} {
			for _, wp := range []int{1, 2, 4} {
				name := fmt.Sprintf("index=%v/%dx%d", indexed, qp, wp)
				cells := countCells(t, Options{QueryPartitions: qp, WritePartitions: wp, EnableQueryIndex: indexed}, queries, values)
				var sum Cell
				maxCost := int64(0)
				colWrites := map[int]int64{}
				for _, c := range cells {
					sum.Writes += c.Writes
					sum.Probed += c.Probed
					sum.Evaluated += c.Evaluated
					sum.Matched += c.Matched
					maxCost = max(maxCost, c.Cost)
					if c.Cost != c.Writes+c.Probed {
						t.Fatalf("%s: cell %d,%d cost %d, want writes + probed = %d", name, c.Row, c.Col, c.Cost, c.Writes+c.Probed)
					}
					if w, ok := colWrites[c.Col]; ok && w != c.Writes {
						t.Fatalf("%s: column %d saw %d writes in one row and %d in another", name, c.Col, w, c.Writes)
					}
					colWrites[c.Col] = c.Writes
				}
				// Every write reaches one cell per row.
				if sum.Writes != int64(writes*qp) {
					t.Fatalf("%s: cells counted %d writes, want W x QP = %d", name, sum.Writes, writes*qp)
				}
				if sum.Matched != int64(hits) {
					t.Fatalf("%s: %d evaluations matched, want the %d hits", name, sum.Matched, hits)
				}
				if !indexed && (sum.Evaluated != queries*writes || sum.Probed != queries*writes) {
					t.Fatalf("%s: full scan probed %d and evaluated %d, want Q x W = %d each", name, sum.Probed, sum.Evaluated, queries*writes)
				}
				// The ranges are disjoint, so a write's probe finds at most the
				// one query whose range holds it, in the one row holding that query.
				if indexed && (sum.Evaluated > sum.Probed || sum.Probed > writes) {
					t.Fatalf("%s: index probed %d and evaluated %d over %d writes, want evaluated <= probed <= W", name, sum.Probed, sum.Evaluated, writes)
				}
				// Hash placement: rows hold Bin(Q, 1/QP) queries and columns see
				// Bin(W, 1/WP) writes; four standard deviations per axis bound
				// the busiest cell against the mean.
				mean := float64(sum.Writes+sum.Probed) / float64(qp*wp)
				bound := (1 + 4*math.Sqrt(float64(qp-1)/queries)) * (1 + 4*math.Sqrt(float64(wp-1)/writes))
				if ratio := float64(maxCost) / mean; ratio > bound {
					t.Fatalf("%s: busiest cell costs %.2f x the mean, want <= %.2f", name, ratio, bound)
				}
			}
		}
	}
}

// countCells runs one unthrottled grid: it installs the queries on every
// cell of their rows, then inserts one document per value and returns the
// cells' counts once every write has been counted.
func countCells(t *testing.T, opts Options, queries int, values []int64) []Cell {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer bus.Close()
	opts.TickInterval = time.Millisecond // the cells store what they hold on their tick
	cl, err := NewCluster(bus, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Start(); err != nil {
		t.Fatal(err)
	}
	defer cl.Stop()
	topics := cl.Topics()
	for i := 0; i < queries; i++ {
		publishEnv(t, bus, topics.Queries(), &Envelope{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t", SubscriptionID: fmt.Sprintf("s%d", i), TTLMillis: time.Hour.Milliseconds(),
			Query: rangeSpec(10*i, 10*i+10),
		}})
	}
	// A write that reached a cell before its queries would be evaluated by
	// their replay instead of being probed.
	waitUntil(t, "queries installed on every cell of their rows", func() bool {
		held := int64(0)
		for _, c := range cl.Cells() {
			held += c.Queries
		}
		return held == int64(queries*opts.WritePartitions)
	})
	for i, v := range values {
		key := fmt.Sprintf("k%d", i)
		publishEnv(t, bus, topics.Writes(), &Envelope{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: key, Version: uint64(i + 1), Op: document.OpInsert,
			Doc: document.Document{"_id": key, "n": v},
		}}})
	}
	want := int64(len(values) * opts.QueryPartitions)
	waitUntil(t, "every write counted", func() bool {
		n := int64(0)
		for _, c := range cl.Cells() {
			n += c.Writes
		}
		return n >= want
	})
	return cl.Cells()
}
