package experiments

import (
	"strings"
	"testing"
)

// TestSpatioTextIndexSelectivity is the scaled-down version of the `-exp
// spatiotext` run: over a mixed equality/geo/text population, the
// generalized predicate index must keep per-write candidate sets at a tiny
// fraction of the registered queries, while the unindexed baseline evaluates
// the full population on every write. The claim is stated on work done
// (filter evaluations per write) and on delivery at 50x the write rate, not
// on grid-stage latency: a notification's match stamp is taken when its
// query is reached, so where the hit query sits in a 12 000-query scan — not
// how long the scan takes — decides the unindexed figure.
func TestSpatioTextIndexSelectivity(t *testing.T) {
	if testing.Short() {
		t.Skip("spatiotext points take seconds")
	}
	cfg := fastCfg()
	const queries = 12_000
	without, err := RunSpatioTextPoint(cfg, queries, SpatioTextBaseRate, false)
	if err != nil {
		t.Fatal(err)
	}
	with, err := RunSpatioTextPoint(cfg, queries, 200, true)
	if err != nil {
		t.Fatal(err)
	}
	if without.WritesMatched == 0 || with.WritesMatched == 0 {
		t.Fatalf("no writes reached the matching stage (without=%d with=%d)",
			without.WritesMatched, with.WritesMatched)
	}
	evaluated := func(p Point) float64 { return float64(p.CandEvaluated) / float64(p.WritesMatched) }
	// The unindexed node probes and evaluates the full population per write.
	if perWrite := without.CandidatesPerWrite(); perWrite < float64(queries) {
		t.Fatalf("unindexed candidates/write = %.1f, want the full %d", perWrite, queries)
	}
	if perWrite := evaluated(without); perWrite < 0.99*float64(queries) {
		t.Fatalf("unindexed evaluations/write = %.1f, want the full %d", perWrite, queries)
	}
	// The index keeps candidate sets — and with them filter evaluations —
	// under 1% of the registered queries.
	perWrite := with.CandidatesPerWrite()
	if share := perWrite / queries; share > 0.01 {
		t.Fatalf("indexed candidates/write = %.1f (%.2f%% of %d queries), want <= 1%%",
			perWrite, share*100, queries)
	}
	if perWrite := evaluated(with); perWrite > 0.01*float64(queries) {
		t.Fatalf("indexed evaluations/write = %.1f, want <= 1%% of %d queries", perWrite, queries)
	}
	// And the saved work buys rate: at 50x the unindexed point's write rate
	// the indexed node still delivers every expected notification.
	if with.Expected == 0 || !with.DeliveryOK() {
		t.Fatalf("indexed point at 50x rate delivered %d of %d notifications", with.Delivered, with.Expected)
	}
	out := RenderSpatioText([]SpatioTextResult{
		{Label: "unindexed (full scan)", Point: without},
		{Label: "indexed", Point: with},
	})
	if !strings.Contains(out, "cand/write") {
		t.Fatalf("render lost the candidate column:\n%s", out)
	}
}
