//go:build bench

package layers

import "testing"

// Every probe the catalogue lists under source (a) must report, and report a
// positive number: zero or less means the probe timed its own bookkeeping.
func TestProbesReportPositiveNumbers(t *testing.T) {
	got := Probes()
	for _, name := range []string{
		"storage.insert_ns", "storage.find_and_modify_ns", "storage.insert_allocs",
		"storage.oplog_tail_ns", "storage.find_scan_ns", "storage.chunk_cursor_ns",
		"query.match_range_ns", "query.match_complex_ns", "query.compile_ns", "query.sort_compare_ns",
		"wire.write_encode_ns", "wire.write_decode_ns", "wire.notify_encode_ns", "wire.notify_decode_ns",
		"bus.mem_publish_ns", "bus.tcp_roundtrip_us",
	} {
		if v, ok := got[name]; !ok || v <= 0 {
			t.Errorf("%s = %v (reported: %v)", name, v, ok)
		}
	}
	// The codec's steady-state encode is pinned at no allocations.
	if v, ok := got["wire.encode_allocs"]; !ok || v < 0 {
		t.Errorf("wire.encode_allocs = %v (reported: %v)", v, ok)
	}
}

func TestTokenScan(t *testing.T) {
	for payload, want := range map[string]int32{
		"":                        -1,
		"no token here":           -1,
		"x~12~y":                  12,
		"~a~ then ~7~":            7,
		"tilde ~ alone, ~345~ ok": 345,
		"~99":                     -1,
	} {
		if got := token([]byte(payload)); got != want {
			t.Errorf("token(%q) = %d, want %d", payload, got, want)
		}
	}
}
