package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"
)

// measureTraced is the --trace 1 invocation: the per-layer numbers. It
// first takes a short untraced steady phase on a bare stack as the
// reference for trace.overhead_ratio, then runs the full phases on a stack
// whose event layer is wrapped in the tracedBus, with a CPU profile over
// the steady phase, and finally times the isolated probes. End-to-end
// numbers are never taken from here.
func measureTraced(wl *workload, seed int64, seconds float64, scratch string) (*report, error) {
	p := planFor(seconds)
	if kit == nil {
		fmt.Fprintln(os.Stderr, "benchmark: warning: built without the bench tag (the layers package did not compile?): probe, span and bus-byte metrics are absent")
	}

	ref, err := setUp(wl, seed, nil)
	if err != nil {
		return nil, fmt.Errorf("reference set-up: %w", err)
	}
	err = ref.execute(plan{warm: p.warm, cycles: 1, steady: p.steady}, hooks{})
	notify := func(s *phaseSamples) []int64 { return s.notify }
	refP50 := ref.overCycles(ref.quantile(kSteady, notify, 0.5))
	ref.tearDown()
	if err != nil {
		return nil, fmt.Errorf("reference run: %w", err)
	}

	var tracer busTracer
	epoch := time.Now()
	if kit != nil {
		tracer = kit.newTracer(epoch)
	}
	r, err := setUpAt(wl, seed, tracer, epoch)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer r.tearDown()
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return nil, err
	}
	// One CPU profile per cycle's steady phase; pprof merges them.
	var profiles []string
	var prof *os.File
	h := hooks{
		steadyStart: func(cycle int) {
			if tracer != nil {
				tracer.enable(true)
			}
			path := filepath.Join(scratch, fmt.Sprintf("cpu-%s-%d-%d.pb.gz", wl.name, seed, cycle))
			var err error
			if prof, err = os.Create(path); err == nil {
				err = pprof.StartCPUProfile(prof)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "benchmark: cpu profile:", err)
				return
			}
			profiles = append(profiles, path)
		},
		steadyEnd: func(int) {
			pprof.StopCPUProfile()
			if prof != nil {
				_ = prof.Close() // StopCPUProfile has flushed; nothing is written after it
				prof = nil
			}
			if tracer != nil {
				tracer.enable(false)
			}
		},
	}
	runtime.GC() // as in the untraced run
	if err := r.execute(p, h); err != nil {
		return nil, err
	}

	res := r.endToEnd()
	m := res.metrics
	r.layerCounters(m)
	if tracer != nil {
		r.spanMetrics(m, tracer)
	}
	m["trace.overhead_ratio"] = m["notify_p50_ms"] / refP50
	shares, err := cpuShares(profiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: warning: cpu.share.* absent:", err)
	}
	for k, v := range shares {
		m[k] = v
	}
	if h := shares["cpu.share.harness"]; h > 0.35 {
		res.invalid = append(res.invalid, fmt.Sprintf("the generator is the load: cpu.share.harness = %.2f > 0.35", h))
	}
	r.tearDown()
	if kit != nil {
		for k, v := range kit.probes() {
			m[k] = v
		}
	}
	rep := newReport(wl, seed, seconds, true, res)
	rep.keep(perLayerNames)
	return rep, nil
}

// spanMetrics joins the tracedBus's stamps with the client's to cut every
// steady-phase hit write into four contiguous spans, and reports each
// span's median.
func (r *run) spanMetrics(m map[string]float64, tracer busTracer) {
	busBytes, spans := tracer.snapshot()
	m["bus.bytes_per_write"] = float64(busBytes) / float64(r.steadyWrites())
	var writePath, cluster, busNotify, edge, whole []int64
	for seq, s := range spans {
		rec := r.ops.get(seq)
		due, first := rec.due.Load(), rec.firstNotify.Load()
		if kindOf(int(rec.phase)) != kSteady || due == 0 || first == 0 || s.writePub == 0 || s.notifyPub == 0 || s.notifyDeliver == 0 {
			continue
		}
		writePath = append(writePath, s.writePub-due)
		cluster = append(cluster, s.notifyPub-s.writePub)
		busNotify = append(busNotify, s.notifyDeliver-s.notifyPub)
		edge = append(edge, first-s.notifyDeliver)
		whole = append(whole, first-due)
	}
	med := func(ns []int64) float64 { return percentile(nsToSortedMS(ns), 0.5) }
	m["stage.write_path_ms"] = med(writePath)
	m["stage.cluster_ms"] = med(cluster)
	m["stage.bus_notify_ms"] = med(busNotify)
	m["stage.edge_ms"] = med(edge)
	// Against the same writes' own due → first-frame median: on the fan-out
	// workload notify_p50_ms is over all 100 deliveries of a write and sits
	// a fan-out's length later.
	m["stage.sum_over_e2e"] = (m["stage.write_path_ms"] + m["stage.cluster_ms"] + m["stage.bus_notify_ms"] + m["stage.edge_ms"]) / med(whole)
}

// cpuLayers maps import-path prefixes of profiled functions to the layer
// they are charged to. Everything unlisted — the Go runtime, the rest of
// the standard library — is "runtime".
var cpuLayers = []struct{ prefix, layer string }{
	{"invalidb/internal/storage", "storage"},
	{"invalidb/internal/document", "document"},
	{"invalidb/internal/query", "query"},
	{"invalidb/internal/core", "core"},
	{"invalidb/internal/topology", "topology"},
	{"invalidb/internal/eventlayer", "eventlayer"},
	{"invalidb/internal/appserver", "appserver"},
	{"invalidb/internal/gateway", "gateway"},
	{"encoding/json", "json"},
	{"invalidb/benchmark", "harness"},
	{"main.", "harness"},
}

// cpuShares folds a CPU profile by import path and returns each layer's
// share of the sampled time. `go tool pprof -traces` prints every sample
// with its stack, leaf first; a sample is charged to the innermost frame
// that belongs to a listed layer, so that the map lookups, allocations and
// system calls a layer causes count as that layer's busy time, and only
// what no layer called for (background collection, the scheduler) stays
// with the runtime.
func cpuShares(profiles []string) (map[string]float64, error) {
	if len(profiles) == 0 {
		return nil, fmt.Errorf("no profile was written")
	}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, "go", append([]string{"tool", "pprof", "-traces"}, profiles...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, strings.TrimSpace(stderr.String()))
	}
	busy := map[string]float64{}
	var total, weight float64
	charged := true // no sample open
	settle := func() {
		if !charged {
			busy["runtime"] += weight
		}
		charged = true
	}
	for _, line := range strings.Split(string(out), "\n") {
		if strings.HasPrefix(line, "---") {
			settle()
			continue
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		name := f[0]
		// A sample opens with its weight ("10ms") before the leaf function.
		if d, err := time.ParseDuration(f[0]); err == nil && len(f) >= 2 {
			settle()
			weight, charged = d.Seconds(), false
			total += weight
			name = f[1]
		}
		if charged {
			continue
		}
		for _, l := range cpuLayers {
			if strings.HasPrefix(name, l.prefix) {
				busy[l.layer] += weight
				charged = true
				break
			}
		}
	}
	settle()
	if total == 0 {
		return nil, fmt.Errorf("profiles %v hold no samples", profiles)
	}
	shares := map[string]float64{"cpu.share.runtime": busy["runtime"] / total}
	for _, l := range cpuLayers {
		shares["cpu.share."+l.layer] = busy[l.layer] / total
	}
	return shares, nil
}
