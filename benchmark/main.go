// Command benchmark is the repository's yardstick: it boots the full
// in-process InvaliDB stack as it ships by default and drives it only from
// outside, over the gateway's newline-delimited JSON protocol, reporting
// what a user feels (client write → notification at a subscribed gateway
// client, write and subscribe latency, peak operations per second, CPU per
// write, memory, set-up time) and, in a separate traced run, which layer
// spent it. README.md is the catalogue.
//
//	bash benchmark/run.sh --workload match-wide --seed 1 --seconds 16 --trace 0
//	bash benchmark/run.sh compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// An untraced run sets the stack up setupWarmups + setupRepeats times;
// setup_s is the median of the last setupRepeats. The first set-ups of a
// process fault its heap in from the operating system, and in about one
// process in four that took three set-ups and 80 ms each, which made
// setup_s bimodal.
const (
	setupWarmups = 2
	setupRepeats = 5
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		name    = flag.String("workload", "", "one of "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "seed of the generated inputs")
		seconds = flag.Float64("seconds", 24, "measured seconds: 5% warm-up, then three cycles of steady open loop, admission and peak closed loop (45:20:35)")
		trace   = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics; 0: end-to-end metrics")
		out     = flag.String("out", "", "also write the full JSON report to this file")
		scratch = flag.String("scratch", "benchmark/.build", "directory for the traced run's CPU profile")
	)
	flag.Parse()
	wl := lookupWorkload(*name)
	if wl == nil {
		fmt.Fprintf(os.Stderr, "benchmark: unknown workload %q (have %s)\n", *name, strings.Join(workloadNames, ", "))
		os.Exit(2)
	}
	rep, err := measure(wl, *seed, *seconds, *trace != 0, *scratch)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
	rep.print(os.Stderr)
	if *out != "" {
		if err := rep.writeFile(*out); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
	}
	fmt.Println(rep.lastLine())
	switch {
	case len(rep.Invalid) > 0:
		os.Exit(3)
	case !rep.Correct:
		os.Exit(1)
	}
}

// measure performs one benchmark invocation.
func measure(wl *workload, seed int64, seconds float64, traced bool, scratch string) (*report, error) {
	if traced {
		return measureTraced(wl, seed, seconds, scratch)
	}
	var setups []float64
	var r *run
	for i := 0; i < setupWarmups+setupRepeats; i++ {
		if r != nil {
			r.tearDown()
		}
		// Every set-up, and then the clocked phases, starts from a collected
		// heap: the discarded stacks leave garbage and a heap goal sized for
		// it, and where the collector happens to be is not what is measured.
		runtime.GC()
		var err error
		if r, err = setUp(wl, seed, nil); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i+1, err)
		}
		if i >= setupWarmups {
			setups = append(setups, r.setupS)
		}
	}
	defer r.tearDown()
	runtime.GC()
	if err := r.execute(planFor(seconds), hooks{}); err != nil {
		return nil, err
	}
	res := r.endToEnd()
	r.layerCounters(res.metrics) // free, and kept in the report beside the contract set
	res.metrics["setup_s"] = median(setups)
	res.metrics["rss_peak_mb"] = rssPeakMiB()
	rep := newReport(wl, seed, seconds, false, res)
	rep.keep(endToEndNames)
	return rep, nil
}

// report is the machine-written result of one invocation.
type report struct {
	Workload   string             `json:"workload"`
	Why        string             `json:"why"`
	Seed       int64              `json:"seed"`
	Seconds    float64            `json:"seconds"`
	Traced     bool               `json:"traced"`
	NProc      int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GoVersion  string             `json:"go_version"`
	Commit     string             `json:"commit"`
	Conns      int                `json:"load_connections"`
	OpHash     string             `json:"op_sequence_hash"` // of the seed's first 1 000 writes per connection
	Sizes      map[string]float64 `json:"frozen_sizes"`
	Samples    map[string]int     `json:"samples"`
	Correct    bool               `json:"correct"`
	Attempted  int64              `json:"attempted"`
	Failed     int64              `json:"failed"`
	Failures   []string           `json:"failures,omitempty"`
	Invalid    []string           `json:"invalid,omitempty"`
	Metrics    map[string]metric  `json:"metrics"`
	// Others are measured but not part of this invocation's contract set
	// (the per-layer counters an untraced run gets for free).
	Others map[string]metric `json:"other_metrics,omitempty"`
	// Claim is always null: the benchmark measures, it does not argue.
	Claim *string `json:"claim"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newReport(wl *workload, seed int64, seconds float64, traced bool, res result) *report {
	rep := &report{
		Workload: wl.name, Why: wl.why, Seed: seed, Seconds: seconds, Traced: traced,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Commit: commitID(), Conns: loadConns(),
		OpHash: fmt.Sprintf("%016x", opSequenceHash(wl, seed, loadConns(), 1000)),
		Sizes: map[string]float64{
			"standing_queries": float64(len(wl.queries)), "subs_per_query": float64(wl.subsPerQuery),
			"preload_docs": float64(wl.preload), "steady_writes_per_s": wl.writeRate,
			"steady_subscribes_per_s": wl.subRate, "peak_write_window": float64(wl.writeWindow),
			"peak_subscribe_window": float64(wl.subWindow),
		},
		Samples: res.samples, Attempted: res.attempted, Failed: res.failed,
		Correct: res.failed == 0, Failures: res.failMsgs, Invalid: res.invalid,
		Metrics: map[string]metric{},
	}
	for name, v := range res.metrics {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			rep.Invalid = append(rep.Invalid, fmt.Sprintf("%s has no samples", name))
			continue
		}
		rep.Metrics[name] = metric{Value: v, Unit: unitOf(name)}
	}
	return rep
}

// keep makes the named metrics the invocation's contract set and moves the
// rest aside.
func (rep *report) keep(names []string) {
	wanted := map[string]bool{}
	for _, n := range names {
		wanted[n] = true
	}
	rep.Others = map[string]metric{}
	for n, m := range rep.Metrics {
		if !wanted[n] {
			rep.Others[n] = m
			delete(rep.Metrics, n)
		}
	}
	for _, n := range names {
		if _, ok := rep.Metrics[n]; !ok {
			fmt.Fprintf(os.Stderr, "benchmark: warning: metric %s is absent from this run\n", n)
		}
	}
}

// commitID names the code under test when the checkout can say; the
// driver's checkout is not a repository, so "unknown" is normal there.
func commitID() string {
	for _, dir := range []string{".git", "../.git"} {
		head, err := os.ReadFile(dir + "/HEAD")
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if !strings.HasPrefix(ref, "ref: ") {
			return ref
		}
		if id, err := os.ReadFile(dir + "/" + strings.TrimPrefix(ref, "ref: ")); err == nil {
			return strings.TrimSpace(string(id))
		}
	}
	return "unknown"
}

// print lists every metric by name and unit, then the verdict.
func (rep *report) print(w *os.File) {
	fmt.Fprintf(w, "workload %s seed %d seconds %g traced %v (nproc %d, %d load connections, %s, commit %.12s)\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Traced, rep.NProc, rep.Conns, rep.GoVersion, rep.Commit)
	for _, set := range []map[string]metric{rep.Metrics, rep.Others} {
		names := make([]string, 0, len(set))
		for n := range set {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			fmt.Fprintf(w, "  %-30s %14.4f %s\n", n, set[n].Value, set[n].Unit)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "  samples %v\n", rep.Samples)
	fmt.Fprintf(w, "  fail_ratio %d/%d\n", rep.Failed, rep.Attempted)
	for _, f := range rep.Failures {
		fmt.Fprintln(w, "  FAILED:", f)
	}
	for _, f := range rep.Invalid {
		fmt.Fprintln(w, "  INVALID RUN:", f)
	}
}

func (rep *report) writeFile(path string) error {
	data, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// lastLine is the one-line result the driver reads.
func (rep *report) lastLine() string {
	data, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	return string(data)
}
