package core

import (
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"invalidb/internal/document"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
)

// wireTestEnvelopes returns one representative envelope per kind, with
// every field populated enough to exercise the codec's corners (nested
// documents, nil-vs-empty results, sort keys, negative numbers).
func wireTestEnvelopes() []*Envelope {
	return []*Envelope{
		{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant:         "t1",
			SubscriptionID: "sub-1",
			Query: query.Spec{
				Collection: "orders",
				Filter: map[string]any{
					"status": "open",
					"total":  map[string]any{"$gte": int64(100)},
					"tags":   []any{"a", int64(2), 3.5, true, nil},
				},
				Sort:       []query.SortKey{{Path: "total", Desc: true}, {Path: "_id"}},
				Limit:      10,
				Offset:     2,
				Projection: []string{"_id", "total"},
			},
			Slack:     5,
			TTLMillis: 60000,
			Result: []ResultEntry{
				{Key: "o1", Version: 3, Doc: document.Document{"_id": "o1", "total": int64(250)}},
				{Key: "o2", Version: 1, Doc: nil},
				{Key: "o3", Version: 9, Doc: document.Document{}},
			},
		}},
		{Kind: KindCancel, Cancel: &CancelRequest{
			Tenant: "t1", SubscriptionID: "sub-1", QueryHash: 0xDEADBEEFCAFE1234,
		}},
		{Kind: KindLease, Lease: &Lease{Tenant: "t1", TTLMillis: 30000, Subs: []LeaseEntry{
			{SubscriptionID: "sub-1", QueryHash: 0xDEADBEEFCAFE1234}, {SubscriptionID: "sub-2", QueryHash: 7},
		}}},
		{Kind: KindWrite, Write: &WriteEvent{
			Tenant: "t2",
			Image: &document.AfterImage{
				Collection: "orders", Key: "o9", Version: 7, Op: document.OpUpdate,
				Doc: document.Document{
					"_id":   "o9",
					"total": int64(-42),
					"meta":  map[string]any{"nested": []any{map[string]any{"deep": int64(1)}}},
					"ratio": 0.25,
				},
			},
			SentNs: 1712345678901234567,
		}},
		{Kind: KindNotification, Notification: &Notification{
			Tenant: "t2", QueryID: "q00000000deadbeef", Type: MatchChangeIndex,
			Key: "o9", Doc: document.Document{"_id": "o9", "total": int64(-42)},
			Version: 7, Index: 3, Seq: 99, Origin: "m3.1",
			WriteNs: 100, IngestNs: 200, MatchNs: 300,
		}},
		{Kind: KindNotification, Notification: &Notification{
			Tenant: "t2", QueryID: "q00000000deadbeef", Type: MatchError,
			Error: "index overflow", Index: -1, Seq: 100,
		}},
		{Kind: KindHeartbeat, Heartbeat: &Heartbeat{
			Tenant: "t3", TimeMillis: 1712345678901, Node: "node-a", Boot: 0xFEEDFACECAFEBEEF, Restarts: 2,
		}},
		{Kind: KindHeartbeat, Heartbeat: &Heartbeat{Tenant: "t3", TimeMillis: 1712345678901}}, // single-process: no node name
		{Kind: KindBackfillStart, BackfillStart: &BackfillStart{
			Tenant:         "t1",
			SubscriptionID: "sub-7",
			BackfillID:     "bf-7.1",
			Query: query.Spec{
				Collection: "orders",
				Filter:     map[string]any{"status": "open", "total": map[string]any{"$lt": int64(-5)}},
			},
			Slack:     3,
			TTLMillis: 45000,
		}},
		{Kind: KindBackfillChunk, BackfillChunk: &BackfillChunk{
			Tenant:         "t1",
			SubscriptionID: "sub-7",
			BackfillID:     "bf-7.1",
			QueryHash:      0xDEADBEEFCAFE1234,
			Chunk:          2,
			Low:            1001,
			High:           1017,
			Last:           true,
			Entries: []ResultEntry{
				{Key: "o1", Version: 1005, Doc: document.Document{"_id": "o1", "total": int64(9)}},
				{Key: "o2", Version: 1002, Doc: document.Document{}},
			},
		}},
		{Kind: KindBackfillChunk, BackfillChunk: &BackfillChunk{
			Tenant: "t1", SubscriptionID: "sub-7", BackfillID: "bf-7.1",
			QueryHash: 1, Chunk: 0, Low: 3, High: 4, Entries: nil,
		}},
		{Kind: KindBackfillMark, BackfillMark: &BackfillMark{
			Tenant: "t1", BackfillID: "bf-7.1", Chunk: 2, Phase: BackfillPhaseHigh, Seq: 1017,
		}},
		{Kind: KindBackfillCert, BackfillCert: &BackfillCert{
			Tenant: "t1", SubscriptionID: "sub-7", BackfillID: "bf-7.1",
			QueryID: "q00000000deadbeef", Chunk: 2, Cell: 1, Cells: 2,
			Last: true, Origin: "m3.0", Status: BackfillStatusOK,
		}},
		{Kind: KindBackfillCert, BackfillCert: &BackfillCert{
			Tenant: "t1", SubscriptionID: "sub-7", BackfillID: "bf-7.1",
			QueryID: "q00000000deadbeef", Chunk: -1, Cells: 2, Status: BackfillStatusRestart,
		}},
		// Control-plane kinds (DESIGN.md §13) and epoch-stamped variants of
		// the control messages the coordinator protocol re-routes.
		{Kind: KindPartitionMap, Map: &PartitionMap{
			Epoch: 7, QueryPartitions: 3, WritePartitions: 2,
			Rows: []RowAssignment{{Node: "a", Slot: 0}, {Node: "b", Slot: 0}, {Node: "a", Slot: 1}},
		}},
		{Kind: KindPartitionMap, Map: func() *PartitionMap {
			m := IdentityMap(1, 1)
			m.Epoch = 1
			return m
		}()},
		{Kind: KindNodeHello, Hello: &NodeHello{Node: "a", Slots: 2, MaxWritePartitions: 3}},
		{Kind: KindNodeHello, Hello: &NodeHello{
			Node: "b", Slots: 1, MaxWritePartitions: 2,
			Map: &PartitionMap{
				Epoch: 9, QueryPartitions: 2, WritePartitions: 2,
				Rows: []RowAssignment{{Node: "b", Slot: 0}, {Slot: 1}},
			},
		}},
		{Kind: KindResize, Resize: &ResizeRequest{Axis: ResizeAxisQP}},
		{Kind: KindResize, Resize: &ResizeRequest{Axis: ResizeAxisWP}},
		{Kind: KindEpochAck, EpochAck: &EpochAck{Node: "a", Epoch: 7}},
		{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t1", SubscriptionID: "sub-9", Epoch: 7,
			Query: query.Spec{Collection: "orders"},
		}},
		{Kind: KindCancel, Cancel: &CancelRequest{
			Tenant: "t1", SubscriptionID: "sub-9", QueryHash: 0xDEADBEEFCAFE1234, Epoch: 6,
		}},
		{Kind: KindBackfillStart, BackfillStart: &BackfillStart{
			Tenant: "t1", SubscriptionID: "sub-9", BackfillID: "bf-9.1", Epoch: 7,
			Query: query.Spec{Collection: "orders"},
		}},
		{Kind: KindBackfillChunk, BackfillChunk: &BackfillChunk{
			Tenant: "t1", SubscriptionID: "sub-9", BackfillID: "bf-9.1",
			QueryHash: 2, Chunk: 1, Low: 5, High: 8, Epoch: 7,
		}},
	}
}

// wireCornerEnvelopes are the values a lossy codec gets wrong: floats that
// happen to be integral, the sign of zero, floats beyond int64, and the
// difference between no document and an empty one.
func wireCornerEnvelopes() []*Envelope {
	negZero := math.Copysign(0, -1)
	return []*Envelope{
		{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 1, Op: document.OpInsert,
			Doc: document.Document{
				"intish": 3.0, "int": int64(3), "negzero": negZero, "frac": 3.5,
				"big": 1e300, "hugeint": 1e19, "maxint": float64(1 << 62),
				"arr": []any{1.0, int64(1), []any{}, map[string]any{}},
			},
		}}},
		{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 2, Op: document.OpUpdate, Doc: document.Document{},
		}}},
		{Kind: KindWrite, Write: &WriteEvent{Tenant: "t", Image: &document.AfterImage{
			Collection: "c", Key: "k", Version: 3, Op: document.OpDelete,
		}}},
		{Kind: KindNotification, Notification: &Notification{
			Tenant: "t", QueryID: "q0000000000000001", Type: MatchChange, Key: "k",
			Doc: document.Document{"x": 3.0, "y": negZero}, Version: 2, Index: -1,
		}},
		{Kind: KindNotification, Notification: &Notification{
			Tenant: "t", QueryID: "q0000000000000001", Type: MatchAdd, Key: "k", Doc: document.Document{},
		}},
		{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t", SubscriptionID: "s",
			Query:  query.Spec{Collection: "c", Filter: map[string]any{}},
			Result: []ResultEntry{},
		}},
		{Kind: KindSubscribe, Subscribe: &SubscribeRequest{
			Tenant: "t", SubscriptionID: "s",
			Query: query.Spec{Collection: "c", Filter: map[string]any{"x": map[string]any{"$gte": 3.0}}},
		}},
		{Kind: KindBackfillChunk, BackfillChunk: &BackfillChunk{
			Tenant: "t", SubscriptionID: "s", BackfillID: "b", Entries: []ResultEntry{},
		}},
		{Kind: KindLease, Lease: &Lease{Tenant: "t"}},
	}
}

// TestWireRoundTrip: decode(encode(e)) = e, value types included — the
// codec's whole contract for well-formed envelopes.
func TestWireRoundTrip(t *testing.T) {
	for _, env := range append(wireTestEnvelopes(), wireCornerEnvelopes()...) {
		data, err := env.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", env.Kind, err)
		}
		if data[0] != wireMagic {
			t.Fatalf("%s: encoding does not start with magic: % x", env.Kind, data[:2])
		}
		got, err := DecodeWire(data)
		if err != nil {
			t.Fatalf("%s: decode: %v", env.Kind, err)
		}
		if !reflect.DeepEqual(got, env) {
			t.Fatalf("%s: round trip changed the envelope:\nin:  %#v\nout: %#v", env.Kind, env, got)
		}
	}
	// DeepEqual cannot see the sign of zero.
	data, _ := wireCornerEnvelopes()[0].Encode()
	got, _ := DecodeWire(data)
	if z, ok := got.Write.Image.Doc["negzero"].(float64); !ok || !math.Signbit(z) {
		t.Fatalf("negzero = %#v, want float64(-0)", got.Write.Image.Doc["negzero"])
	}
}

// readSeed parses a `go test fuzz v1` corpus file holding one []byte.
func readSeed(t *testing.T, path string) []byte {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	_, lit, ok := strings.Cut(strings.TrimSpace(string(raw)), "\n")
	lit = strings.TrimSuffix(strings.TrimPrefix(lit, "[]byte("), ")")
	data, err := strconv.Unquote(lit)
	if !ok || err != nil {
		t.Fatalf("%s: not a one-value []byte corpus file: %v", path, err)
	}
	return []byte(data)
}

const wireSeedDir = "testdata/fuzz/FuzzEnvelopeWire"

// TestEveryWireKindHasSeedAndRoundTrips walks the kind table: every row is
// complete, has a sample in wireTestEnvelopes that round-trips, and has a
// fuzz seed that decodes to it — what the build cannot check about a new
// kind.
func TestEveryWireKindHasSeedAndRoundTrips(t *testing.T) {
	if wireKinds[0].name != "" {
		t.Fatal("tag 0 must stay unassigned")
	}
	// The retired kinds' seeds stay in the corpus as reject cases.
	retired, _ := filepath.Glob(filepath.Join(wireSeedDir, "seed-extend-*"))
	resync, _ := filepath.Glob(filepath.Join(wireSeedDir, "seed-resync-*"))
	for _, path := range append(retired, resync...) {
		if _, err := DecodeWire(readSeed(t, path)); err != errWireBadKind {
			t.Errorf("%s: decodes with %v, want the unknown-kind error", path, err)
		}
	}
	seen := map[string]bool{}
	for tag := 1; tag < len(wireKinds); tag++ {
		k := wireKinds[tag]
		if tag == 3 || tag == 7 { // reserved: the extend's and the resync request's tags are never reused
			if k.name != "" || k.append != nil || k.decode != nil {
				t.Fatalf("tag %d must stay a gap, has row %q", tag, k.name)
			}
			continue
		}
		if k.name == "" || k.append == nil || k.decode == nil || seen[k.name] {
			t.Fatalf("tag %d: incomplete or duplicate row %q", tag, k.name)
		}
		seen[k.name] = true
		if got := wireKindTag(k.name); int(got) != tag {
			t.Errorf("%s: wireKindTag = %d, want %d", k.name, got, tag)
		}
		sampled := false
		for _, env := range wireTestEnvelopes() {
			if env.Kind != k.name {
				continue
			}
			sampled = true
			data, err := env.Encode()
			if err != nil || data[1] != byte(tag) {
				t.Fatalf("%s: sample encodes to tag %d, err %v", k.name, data[1], err)
			}
			if got, err := DecodeWire(data); err != nil || !reflect.DeepEqual(got, env) {
				t.Errorf("%s: sample does not round-trip: %v", k.name, err)
			}
		}
		if !sampled {
			t.Errorf("%s: no sample in wireTestEnvelopes", k.name)
		}
		seeds, _ := filepath.Glob(filepath.Join(wireSeedDir, "seed-"+strings.ToLower(k.name)+"-*"))
		seeded := false
		for _, path := range seeds {
			if env, err := DecodeWire(readSeed(t, path)); err == nil && env.Kind == k.name {
				seeded = true
			}
		}
		if !seeded {
			t.Errorf("%s: no decodable fuzz seed %s/seed-%s-*", k.name, wireSeedDir, strings.ToLower(k.name))
		}
	}
}

// TestWireRejectsNonEnvelopes: a payload that does not start with the magic
// byte is not an envelope, whatever follows — the JSON envelopes of the
// format this codec replaced included.
func TestWireRejectsNonEnvelopes(t *testing.T) {
	inputs := [][]byte{nil, {}, []byte("{"), []byte(`{"kind":"write","write":{}}`),
		[]byte(`{"kind":"heartbeat","hb":{"tenant":"t","ts":1}}`)}
	good, err := wireTestEnvelopes()[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	for first := 0; first < 256; first++ {
		if first != wireMagic {
			inputs = append(inputs, append([]byte{byte(first)}, good[1:]...))
		}
	}
	legacy, _ := filepath.Glob(filepath.Join(wireSeedDir, "seed-*-json"))
	if len(legacy) == 0 {
		t.Fatal("legacy JSON seeds missing from the corpus")
	}
	for _, path := range legacy {
		inputs = append(inputs, readSeed(t, path))
	}
	for _, in := range inputs {
		if _, err := DecodeWire(in); err == nil {
			t.Errorf("non-envelope accepted: %q", in)
		}
	}
}

// TestWireValidation pins, per kind, what the codec refuses to carry in
// either direction: a bad value fails at its publisher's Encode and, when it
// arrives as bytes, at the receiver's DecodeWire.
func TestWireValidation(t *testing.T) {
	badMap := &PartitionMap{Epoch: 1, QueryPartitions: 2, WritePartitions: 1, Rows: []RowAssignment{{Node: "a"}}}
	img := &document.AfterImage{Collection: "c", Key: "k", Version: 1, Op: document.OpInsert, Doc: document.Document{}}
	unencodable := map[string]*Envelope{
		"match type 0":        {Kind: KindNotification, Notification: &Notification{Tenant: "t"}},
		"match type 99":       {Kind: KindNotification, Notification: &Notification{Tenant: "t", Type: 99}},
		"mark phase":          {Kind: KindBackfillMark, BackfillMark: &BackfillMark{Phase: "mid"}},
		"cert status":         {Kind: KindBackfillCert, BackfillCert: &BackfillCert{Status: "maybe"}},
		"resize axis":         {Kind: KindResize, Resize: &ResizeRequest{Axis: "depth"}},
		"map rows != qp":      {Kind: KindPartitionMap, Map: badMap},
		"map 0 x 0":           {Kind: KindPartitionMap, Map: &PartitionMap{}},
		"map negative slot":   {Kind: KindPartitionMap, Map: &PartitionMap{QueryPartitions: 1, WritePartitions: 1, Rows: []RowAssignment{{Slot: -1}}}},
		"hello with bad map":  {Kind: KindNodeHello, Hello: &NodeHello{Node: "a", Map: badMap}},
		"write without image": {Kind: KindWrite, Write: &WriteEvent{Tenant: "t"}},
		"NaN":                 {Kind: KindWrite, Write: &WriteEvent{Image: &document.AfterImage{Key: "k", Version: 1, Doc: document.Document{"x": math.NaN()}}}},
		"+Inf":                {Kind: KindNotification, Notification: &Notification{Type: MatchAdd, Doc: document.Document{"x": math.Inf(1)}}},
		"non-document value":  {Kind: KindNotification, Notification: &Notification{Type: MatchAdd, Doc: document.Document{"x": struct{}{}}}},
		"unknown kind":        {Kind: "nope", Heartbeat: &Heartbeat{}},
		"no kind":             {Heartbeat: &Heartbeat{}},
	}
	// Exactly one payload per kind, and it is the kind's own.
	for tag := 1; tag < len(wireKinds); tag++ {
		unencodable[wireKinds[tag].name+" without payload"] = &Envelope{Kind: wireKinds[tag].name}
	}
	unencodable["heartbeat carrying a write"] = &Envelope{Kind: KindHeartbeat, Write: &WriteEvent{Tenant: "t", Image: img}}
	for name, env := range unencodable {
		if data, err := env.Encode(); err == nil {
			t.Errorf("%s: encoded to % x", name, data)
		}
	}

	str := func(s string) []byte { return appendString(nil, s) }
	cat := func(parts ...[]byte) (out []byte) {
		for _, p := range parts {
			out = append(out, p...)
		}
		return out
	}
	badMapBytes := cat([]byte{1, 4, 2, 1}, str("a"), []byte{0}) // epoch 1, 2 x 1, one row
	undecodable := map[string][]byte{
		"match type 0":       cat([]byte{wireMagic, wireTagNotification}, str("t"), str("q"), []byte{0}, make([]byte, 10)),
		"match type 9":       cat([]byte{wireMagic, wireTagNotification}, str("t"), str("q"), []byte{9}, make([]byte, 10)),
		"mark phase 2":       cat([]byte{wireMagic, wireTagBackfillMark}, str("t"), str("b"), []byte{0, 2, 0}),
		"cert status 2":      cat([]byte{wireMagic, wireTagBackfillCert}, str("t"), str("s"), str("b"), str("q"), []byte{0, 0, 0, 0}, str("o"), []byte{2}),
		"cert last 2":        cat([]byte{wireMagic, wireTagBackfillCert}, str("t"), str("s"), str("b"), str("q"), []byte{0, 0, 0, 2}, str("o"), []byte{0}),
		"resize axis 2":      {wireMagic, wireTagResize, 2},
		"map rows != qp":     cat([]byte{wireMagic, wireTagPartitionMap}, badMapBytes),
		"hello with bad map": cat([]byte{wireMagic, wireTagNodeHello}, str("a"), []byte{2, 2, 1}, badMapBytes),
		"hello presence 2":   cat([]byte{wireMagic, wireTagNodeHello}, str("a"), []byte{2, 2, 2}),
		"hello unnamed":      cat([]byte{wireMagic, wireTagNodeHello}, str(""), []byte{2, 2, 0}),
		"hello slots -1":     cat([]byte{wireMagic, wireTagNodeHello}, str("a"), []byte{1, 2, 0}),
		"hello max wp -1":    cat([]byte{wireMagic, wireTagNodeHello}, str("a"), []byte{2, 1, 0}),
		"ack unnamed":        cat([]byte{wireMagic, wireTagEpochAck}, str(""), []byte{7}),
		"write empty key":    cat([]byte{wireMagic, wireTagWrite}, str("t"), []byte{0}, str("c"), str(""), []byte{1, 1, wireValObject, 0}),
		"write version 0":    cat([]byte{wireMagic, wireTagWrite}, str("t"), []byte{0}, str("c"), str("k"), []byte{0, 1, wireValObject, 0}),
		"write op 9":         cat([]byte{wireMagic, wireTagWrite}, str("t"), []byte{0}, str("c"), str("k"), []byte{1, 9, wireValObject, 0}),
		"insert without doc": cat([]byte{wireMagic, wireTagWrite}, str("t"), []byte{0}, str("c"), str("k"), []byte{1, 1, wireValNull}),
		"delete with doc":    cat([]byte{wireMagic, wireTagWrite}, str("t"), []byte{0}, str("c"), str("k"), []byte{1, 3, wireValObject, 0}),
		"doc is a string":    cat([]byte{wireMagic, wireTagWrite}, str("t"), []byte{0}, str("c"), str("k"), []byte{1, 1, wireValString, 0}),
		"sort desc 2":        cat([]byte{wireMagic, wireTagBackfillStart}, str("t"), str("s"), str("b"), []byte{0, 0}, str("c"), []byte{wireValNull, 1}, str("x"), []byte{2, 0, 0, 0, 0}),
		"heartbeat no node":  cat([]byte{wireMagic, wireTagHeartbeat}, str("t"), []byte{2}),
		"heartbeat no boot":  cat([]byte{wireMagic, wireTagHeartbeat}, str("t"), []byte{2}, str("n")),
		"heartbeat no count": cat([]byte{wireMagic, wireTagHeartbeat}, str("t"), []byte{2}, str("n"), []byte{5}),
		"tag 0":              {wireMagic, 0},
		"tag 3 (reserved)":   cat([]byte{wireMagic, 3}, str("t"), str("s"), make([]byte, 8), []byte{2, 0}),
		"tag 7 (reserved)":   cat([]byte{wireMagic, 7}, str("match"), []byte{8}),
		"lease count > rest": cat([]byte{wireMagic, wireTagLease}, str("t"), []byte{2, 2}, str("s"), make([]byte, 8)),
		"tag past the table": {wireMagic, byte(len(wireKinds)), 0},
		"tag 255":            {wireMagic, 0xFF, 0xFF},
	}
	for _, env := range wireTestEnvelopes() {
		data, err := env.Encode()
		if err != nil {
			t.Fatal(err)
		}
		undecodable[env.Kind+" with a trailing byte"] = append(data, 0)
	}
	for name, in := range undecodable {
		if env, err := DecodeWire(in); err == nil {
			t.Errorf("%s: % x decoded to %#v", name, in, env)
		}
	}
	if env, err := DecodeWire(append(undecodable["heartbeat no count"], 1)); err != nil ||
		*env.Heartbeat != (Heartbeat{Tenant: "t", TimeMillis: 1, Node: "n", Boot: 5, Restarts: 1}) {
		t.Errorf("heartbeat with all five fields: %+v, %v", env, err)
	}
	// The hand-built layouts above are right up to the one bad byte.
	for name, fix := range map[string]func(b []byte){
		"mark phase 2": func(b []byte) { b[len(b)-2] = 1 }, "cert status 2": func(b []byte) { b[len(b)-1] = 1 },
		"resize axis 2": func(b []byte) { b[2] = 1 }, "hello presence 2": func(b []byte) { b[len(b)-1] = 0 },
		"write op 9": func(b []byte) { b[len(b)-3] = 2 }, "sort desc 2": func(b []byte) { b[len(b)-5] = 1 },
		"lease count > rest": func(b []byte) { b[5] = 1 },
	} {
		in := append([]byte(nil), undecodable[name]...)
		fix(in)
		if _, err := DecodeWire(in); err != nil {
			t.Errorf("%s: still rejected with the bad byte fixed: %v", name, err)
		}
	}

	// A decoded envelope carries its kind's payload and no other.
	for _, env := range wireTestEnvelopes() {
		data, _ := env.Encode()
		got, err := DecodeWire(data)
		if err != nil {
			t.Fatal(err)
		}
		v, set := reflect.ValueOf(*got), 0
		for i := 0; i < v.NumField(); i++ {
			if f := v.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
				set++
			}
		}
		if set != 1 {
			t.Errorf("%s: decoded envelope has %d payloads", env.Kind, set)
		}
	}
}

// TestWireRejectsCorruptBinary: corrupt and truncated input must error,
// never panic.
func TestWireRejectsCorruptBinary(t *testing.T) {
	good, err := wireTestEnvelopes()[0].Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := [][]byte{
		{wireMagic},                                     // magic only
		{wireMagic, wireTagHeartbeat},                   // truncated payload
		{wireMagic, wireTagNotification},                // truncated payload
		good[:len(good)/2],                              // truncated mid-payload
		{wireMagic, wireTagHeartbeat, 1, 't', 2, 0xFF},  // bad varint tail
		{wireMagic, wireTagHeartbeat, 2, 0xFF, 0xFE, 0}, // invalid UTF-8 tenant
	}
	for _, pattern := range []string{"seed-*-corrupt", "seed-*-trunc"} {
		seeds, _ := filepath.Glob(filepath.Join(wireSeedDir, pattern))
		for _, path := range seeds {
			cases = append(cases, readSeed(t, path))
		}
	}
	for i, in := range cases {
		if _, err := DecodeWire(in); err == nil {
			t.Errorf("case %d (% x): corrupt input accepted", i, in)
		}
	}
	// A huge declared count must error before allocating.
	bomb := []byte{wireMagic, wireTagSubscribe, 0, 0, 0, 0, 0, 0, // empty strings/ints/spec prefix
		0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F} // absurd uvarint
	if _, err := DecodeWire(bomb); err == nil {
		t.Error("allocation-bomb count accepted")
	}
}

// TestEnvelopeWireEncodeNoAllocs pins the steady-state binary encode of
// Write and Notification envelopes at 0 allocs/op when the caller reuses
// the buffer, which is what the TCP write path does.
func TestEnvelopeWireEncodeNoAllocs(t *testing.T) {
	for _, env := range wireTestEnvelopes() {
		if env.Kind != KindWrite && env.Kind != KindNotification {
			continue
		}
		buf, err := AppendEnvelope(nil, env)
		if err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(200, func() {
			var err error
			buf, err = AppendEnvelope(buf[:0], env)
			if err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: steady-state binary encode allocates %.1f/op, want 0", env.Kind, allocs)
		}
	}
}

// TestWireMetricsRegistered: encoding and decoding traffic shows up as
// wire.* gauges on a registry.
func TestWireMetricsRegistered(t *testing.T) {
	env := &Envelope{Kind: KindHeartbeat, Heartbeat: &Heartbeat{Tenant: "t", TimeMillis: 5}}
	b, err := env.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodeWire(b); err != nil {
		t.Fatal(err)
	}
	r := metrics.NewRegistry()
	RegisterWireMetrics(r)
	snap := r.Snapshot()
	if snap.Gauges["wire.encode.heartbeat.messages"] < 1 {
		t.Fatalf("wire.encode.heartbeat.messages missing: %v", snap.Gauges)
	}
	if snap.Gauges["wire.decode.heartbeat.bytes"] < float64(len(b)) {
		t.Fatalf("wire.decode.heartbeat.bytes too small: %v", snap.Gauges)
	}
}
