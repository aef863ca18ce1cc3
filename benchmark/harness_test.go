package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func TestSeedDeterminesOpSequence(t *testing.T) {
	for _, name := range workloadNames {
		wl := lookupWorkload(name)
		a := opSequenceHash(wl, 7, 2, 500)
		if b := opSequenceHash(lookupWorkload(name), 7, 2, 500); a != b {
			t.Errorf("%s: same seed gave op-sequence hashes %x and %x", name, a, b)
		}
		if c := opSequenceHash(wl, 8, 2, 500); a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same op-sequence hash %x", name, a)
		}
	}
}

func TestParseFrame(t *testing.T) {
	var f frame
	line := []byte(`{"op":"event","id":"s12","type":"changeIndex","key":"d7","doc":{"_id":"d7","b":3,"pad":"x\"}{","nest":{"w":"~1~","a":[1,{"_id":"d9"}]},"w":"~345~"},"index":4}`)
	if err := parseFrame(line, &f); err != nil {
		t.Fatal(err)
	}
	if string(f.op) != "event" || string(f.id) != "s12" || string(f.typ) != "changeIndex" || string(f.key) != "d7" ||
		f.index != 4 || !f.hasDoc || f.doc != (docRef{7, 345}) {
		t.Errorf("parsed %+v", f)
	}
	// Field order and spacing must not matter; index 0 is omitted on the wire.
	line = []byte(`{ "docs" : [ {"w":"~2~","_id":"d1"}, {"_id":"d3","w":"~4~"} ], "type":"initial", "id":"c5", "op":"event" }`)
	if err := parseFrame(line, &f); err != nil {
		t.Fatal(err)
	}
	if len(f.docs) != 2 || f.docs[0] != (docRef{1, 2}) || f.docs[1] != (docRef{3, 4}) || f.index != 0 || f.hasDoc {
		t.Errorf("parsed %+v", f)
	}
	if err := parseFrame([]byte(`{"op":"event","id":"s1","type":"remove","key":"d2","index":-1}`), &f); err != nil || f.index != -1 || f.hasDoc {
		t.Errorf("remove frame: %+v, %v", f, err)
	}
	for _, bad := range []string{``, `[]`, `{"op":"event","doc":{"_id":"d1"`, `{"op" "x"}`} {
		if err := parseFrame([]byte(bad), &f); err == nil {
			t.Errorf("parseFrame(%q) did not fail", bad)
		}
	}
}

// The acceptance check computes spreads with Python's
// statistics.quantiles(values, n=4); these are its answers.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v, %v; want 2.75, 8.25", q1, q3)
	}
	q1, q3 = quartiles([]float64{10, 1, 7, 3})
	if q1 != 1.5 || q3 != 9.25 {
		t.Errorf("quartiles(10,1,7,3) = %v, %v; want 1.5, 9.25", q1, q3)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.95); p != 10 {
		t.Errorf("p95 of 1..10 = %v, want 10", p)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples must be NaN, not a number that reads as fast")
	}
}

func TestJudge(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102}
	for _, tc := range []struct {
		b      []float64
		better string
		want   string
	}{
		{[]float64{104, 105, 103, 104, 106}, "lower", "unchanged"},
		{[]float64{120, 121, 119, 120, 122}, "lower", "worse"},
		{[]float64{80, 81, 79, 80, 82}, "lower", "better"},
		{[]float64{80, 81, 79, 80, 82}, "higher", "worse"},
		{[]float64{60, 140, 100, 90, 120}, "lower", "unresolved"},
	} {
		if got, _ := judge(steady, tc.b, tc.better, 0.10, true); got != tc.want {
			t.Errorf("judge(%v, better=%s) = %s, want %s", tc.b, tc.better, got, tc.want)
		}
	}
	wide := []float64{60, 140, 100, 90, 120}
	if got, _ := judge(steady, wide, "lower", 0.10, false); got != "unchanged" {
		t.Errorf("judge without the spread check = %s, want unchanged (medians equal)", got)
	}
}

// TestSmoke drives every workload for three seconds, twice with one seed:
// nothing may fail, every end-to-end metric must be there, and the counts
// the program makes of its own work must repeat. The counters are read at
// the phase boundaries while a few writes are in flight, so over one
// two-second steady phase they repeat within 3 %; a full run's three phases
// of 3.4 s bring that under half a per cent.
func TestSmoke(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			var counts [2]map[string]float64
			for i := range counts {
				wl := lookupWorkload(name)
				r, err := setUp(wl, 3, nil)
				if err != nil {
					t.Fatal(err)
				}
				err = r.execute(plan{warm: 300 * time.Millisecond, cycles: 1, steady: 2 * time.Second, admit: 500 * time.Millisecond, peak: 500 * time.Millisecond}, hooks{})
				r.tearDown()
				if err != nil {
					t.Fatal(err)
				}
				res := r.endToEnd()
				res.metrics["rss_peak_mb"] = rssPeakMiB()
				if res.failed != 0 {
					t.Fatalf("fail_ratio %d/%d: %v", res.failed, res.attempted, res.failMsgs)
				}
				for _, m := range endToEndNames {
					if v, ok := res.metrics[m]; !ok || math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
						t.Errorf("%s = %v (present %v): want a finite positive number", m, v, ok)
					}
				}
				r.layerCounters(res.metrics)
				counts[i] = res.metrics
			}
			for _, m := range []string{"match.candidates_per_write", "bus.msgs_per_write"} {
				a, b := counts[0][m], counts[1][m]
				if a == 0 || math.Abs(a-b)/a > 0.03 {
					t.Errorf("%s = %v then %v with the same seed: want within 3%%", m, a, b)
				}
			}
		})
	}
}

// BENCHMARK.json is what the driver reads and catalog.go is what the harness
// reports; they must name the same metrics with the same units, directions
// and bounds, and the same workloads.
func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json beside the benchmark directory:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the harness", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the harness", i, w.Name, workloadNames[i])
		}
	}
	if len(doc.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in catalog.go", len(doc.EndToEnd), len(endToEnd))
	}
	for i, m := range doc.EndToEnd {
		want := endToEnd[i]
		if m.Name != want.name || m.Better != want.better || m.Bound != want.bound || m.Unit != unitOf(m.Name) {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, catalog.go %+v with unit %s", i, m, want, unitOf(want.name))
		}
	}
	if len(doc.PerLayer) != len(perLayerNames) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in catalog.go", len(doc.PerLayer), len(perLayerNames))
	}
	for i, m := range doc.PerLayer {
		if m.Name != perLayerNames[i] || m.Unit != unitOf(m.Name) {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, catalog.go %s (%s)", i, m, perLayerNames[i], unitOf(perLayerNames[i]))
		}
	}
}
