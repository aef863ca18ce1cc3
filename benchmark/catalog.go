package main

import "strings"

// endToEnd is the contract set of an untraced run: what a user of the
// system feels. bound is the share of the parent's median by which the
// metric may worsen before `compare` calls it worse; BENCHMARK.json carries
// the same numbers for the driver.
var endToEnd = []struct {
	name   string
	better string
	bound  float64
}{
	{"setup_s", "lower", 0.25},
	{"notify_p50_ms", "lower", 0.25},
	{"notify_p80_ms", "lower", 0.25},
	{"write_ack_p50_ms", "lower", 0.25},
	{"write_ack_p80_ms", "lower", 0.25},
	{"peak_ops_per_s", "higher", 0.25},
	{"cpu_ms_per_write", "lower", 0.25},
	{"rss_peak_mb", "lower", 0.25},
}

var endToEndNames = func() []string {
	var names []string
	for _, m := range endToEnd {
		names = append(names, m.name)
	}
	return names
}()

// perLayerNames is the contract set of a traced run, grouped by the module
// each metric watches. Source: (a) isolated probe of the layer's public
// functions, (b) delta of the program's own counters over the steady phase,
// (c) the traced run's spans and CPU profile, (h) the harness's own clock.
var perLayerNames = []string{
	// storage (a)
	"storage.insert_ns", "storage.find_and_modify_ns", "storage.insert_allocs",
	"storage.oplog_tail_ns", "storage.find_scan_ns", "storage.chunk_cursor_ns",
	// query / document (a)
	"query.match_range_ns", "query.match_complex_ns", "query.compile_ns", "query.sort_compare_ns",
	// core/wire (a; write_bytes is (b), the workload's real envelopes)
	"wire.write_encode_ns", "wire.write_decode_ns", "wire.notify_encode_ns", "wire.notify_decode_ns",
	"wire.write_bytes", "wire.encode_allocs",
	// eventlayer + tcp (a: publish, roundtrip; b: msgs, dropped; c: bytes)
	"bus.mem_publish_ns", "bus.tcp_roundtrip_us", "bus.msgs_per_write", "bus.bytes_per_write", "bus.dropped",
	// topology (b)
	"topology.tuples_per_write", "topology.queue_max", "topology.acker_inflight_max",
	"topology.failed_tuples", "topology.restarts",
	// core ingest / match / sort (b)
	"stage.ingest_ms", "stage.grid_ms", "stage.bus_ms", "stage.appserver_ms",
	"match.candidates_per_write", "match.evaluated_per_write", "match.useful_ratio",
	"sort.events_per_write", "cluster.installs_per_s",
	// appserver (b)
	"appserver.notifs_per_write", "appserver.renewals_per_s", "appserver.dedup_drops",
	"appserver.event_drops", "backfill.chunks_per_admit", "backfill.retries",
	// gateway (b; bytes_per_delivery is (h))
	"gateway.encoded_per_event", "gateway.delivered_per_s", "gateway.bytes_per_delivery",
	"gateway.shed_events", "gateway.resyncs",
	// process (h)
	"go.allocs_per_write", "go.alloc_bytes_per_write", "go.gc_pause_p95_ms", "go.gc_cpu_fraction",
	"gen.lag_p95_ms", "peak.notify_p95_ms",
	// end-to-end numbers that do not repeat within a quarter on shared cores
	"e2e.notify_p90_ms", "e2e.notify_p95_ms", "e2e.notify_p99_ms", "e2e.notify_max_ms",
	"e2e.write_ack_p90_ms", "e2e.write_ack_p95_ms",
	"e2e.subscribe_p50_ms", "e2e.subscribe_p90_ms", "e2e.fail_ratio",
	// traced spans (c)
	"stage.write_path_ms", "stage.cluster_ms", "stage.bus_notify_ms", "stage.edge_ms",
	"stage.sum_over_e2e", "trace.overhead_ratio",
	// CPU profile of the steady phase, folded by import path (c)
	"cpu.share.storage", "cpu.share.document", "cpu.share.query", "cpu.share.core",
	"cpu.share.topology", "cpu.share.eventlayer", "cpu.share.appserver", "cpu.share.gateway",
	"cpu.share.json", "cpu.share.runtime", "cpu.share.harness",
}

// unitOf derives a metric's unit from its name; the names were chosen so
// that this is possible.
func unitOf(name string) string {
	switch {
	case name == "rss_peak_mb":
		return "MiB"
	case name == "peak_ops_per_s":
		return "ops/s"
	case strings.HasSuffix(name, "_per_s"):
		return "1/s"
	case strings.HasSuffix(name, "_ns"):
		return "ns"
	case strings.HasSuffix(name, "_us"):
		return "us"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case name == "cpu_ms_per_write":
		return "ms"
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.Contains(name, "bytes"):
		return "B"
	case strings.HasSuffix(name, "_per_write"), strings.HasSuffix(name, "_per_event"), strings.HasSuffix(name, "_per_admit"):
		return "ratio"
	case strings.Contains(name, "ratio"), strings.Contains(name, "fraction"), strings.Contains(name, ".share."), strings.HasSuffix(name, "_over_e2e"):
		return "ratio"
	default:
		return "count"
	}
}
