//go:build bench

// Package layers holds the parts of the benchmark that must import the
// program's internal packages: isolated probes that time each layer's
// public functions, and the tracedBus the traced run interposes on the
// event layer. It is built only with the "bench" tag. If a later change to
// the program stops it compiling, run.sh builds the harness without the
// tag: these metrics are then reported absent and the end-to-end run still
// succeeds.
package layers

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/eventlayer/tcp"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// sink keeps measured results alive so the compiler cannot drop the calls.
var sink any

// perOp times f and returns nanoseconds per call: the median of five
// batches, each sized to about 4 ms, after one untimed batch.
func perOp(f func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if d := time.Since(start); d > 2*time.Millisecond || n >= 1<<20 {
			n = int(float64(n) * float64(4*time.Millisecond) / float64(d+1))
			if n < 1 {
				n = 1
			}
			break
		}
		n *= 4
	}
	var batches []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		batches = append(batches, float64(time.Since(start))/float64(n))
	}
	sort.Float64s(batches)
	return batches[len(batches)/2]
}

// allocsPerOp counts heap allocations per call of f.
func allocsPerOp(f func()) float64 {
	const n = 200
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / n
}

// nestedDoc is write-stream's document shape: about 1 KiB, nested.
func nestedDoc(i int) document.Document {
	return document.Document{
		"_id": fmt.Sprintf("d%d", i), "h": float64(i % 100), "n": float64(0), "w": fmt.Sprintf("~%d~", i),
		"user": map[string]any{
			"name": "u123", "score": float64(0),
			"geo":  map[string]any{"lat": float64(12), "lon": float64(-45)},
			"tags": []any{"alpha", "beta", "gamma"},
		},
		"items": []any{
			map[string]any{"sku": "a1", "qty": float64(1), "price": 9.5},
			map[string]any{"sku": "b2", "qty": float64(2), "price": 19.25},
			map[string]any{"sku": "c3", "qty": float64(3), "price": float64(4)},
		},
		"pad": strings.Repeat("w", 620),
	}
}

func flatDoc(i int) document.Document {
	return document.Document{
		"_id": fmt.Sprintf("d%d", i), "g": float64(i % 20), "r": float64(i * 7919 % 100003),
		"v": float64(i), "n": float64(0), "w": fmt.Sprintf("~%d~", i), "pad": strings.Repeat("c", 120),
	}
}

func mustCompile(spec query.Spec) *query.Query {
	q, err := query.Compile(spec)
	if err != nil {
		panic(err)
	}
	return q
}

// Probes times each layer's public functions in isolation, on the
// benchmark's own document shapes. The result maps metric name to value;
// a probe that panics (a signature that still compiles but no longer
// behaves) is left out.
func Probes() map[string]float64 {
	runtime.GC() // the run that just ended left its heap behind
	out := map[string]float64{}
	guard := func(name string, f func()) {
		defer func() {
			if p := recover(); p != nil {
				fmt.Printf("benchmark: probe %s failed: %v\n", name, p)
			}
		}()
		f()
	}
	guard("storage", func() { storageProbes(out) })
	guard("query", func() { queryProbes(out) })
	guard("wire", func() { wireProbes(out) })
	guard("bus", func() { busProbes(out) })
	return out
}

// perItem times f over n prepared inputs, three rounds with fresh inputs
// each (i runs from 0 to 3n), and returns the median round's ns per call.
// For operations that consume their input, where perOp's open-ended
// batches cannot be fed.
func perItem(n int, f func(i int)) float64 {
	var rounds []float64
	for r := 0; r < 3; r++ {
		start := time.Now()
		for i := r * n; i < (r+1)*n; i++ {
			f(i)
		}
		rounds = append(rounds, float64(time.Since(start))/float64(n))
	}
	sort.Float64s(rounds)
	return rounds[1]
}

func storageProbes(out map[string]float64) {
	db := storage.Open(storage.Options{})
	col := db.C("probe")
	const n = 2000
	docs := make([]document.Document, 3*n)
	for i := range docs {
		docs[i] = nestedDoc(i)
	}
	insert := func(i int) {
		ai, err := col.Insert(docs[i])
		if err != nil {
			panic(err)
		}
		sink = ai
	}
	out["storage.insert_ns"] = perItem(n, insert)
	extra := nestedDoc(3 * n)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := col.Insert(extra); err != nil {
		panic(err)
	}
	runtime.ReadMemStats(&after)
	out["storage.insert_allocs"] = float64(after.Mallocs - before.Mallocs)

	update := map[string]any{"$inc": map[string]any{"n": float64(1)}, "$set": map[string]any{"user.score": float64(7), "w": "~9~"}}
	out["storage.find_and_modify_ns"] = perItem(n, func(i int) {
		ai, err := col.FindAndModify(fmt.Sprintf("d%d", i), update, false)
		if err != nil {
			panic(err)
		}
		sink = ai
	})

	// Oplog: a tailer draining entries already committed.
	tail := db.Oplog().Tail(0)
	defer tail.Close()
	out["storage.oplog_tail_ns"] = perItem(n, func(int) {
		ai, ok, err := tail.TryNext()
		if err != nil || !ok {
			panic(fmt.Sprintf("tailer found no entry: ok=%v err=%v", ok, err))
		}
		sink = ai
	})

	// Subscribe-churn's admission read: a group query over 20 000 documents.
	big := db.C("scan")
	for j := 0; j < 20000; j++ {
		if _, err := big.Insert(flatDoc(j)); err != nil {
			panic(err)
		}
	}
	group := mustCompile(query.Spec{Collection: "scan", Filter: map[string]any{"g": float64(3)}})
	out["storage.find_scan_ns"] = perOp(func() {
		docs, err := big.Find(group)
		if err != nil {
			panic(err)
		}
		sink = docs
	})
	out["storage.chunk_cursor_ns"] = perOp(func() {
		cur := big.NewChunkCursor(group)
		for {
			entries, done := cur.Next(256)
			sink = entries
			if done {
				break
			}
		}
	})
}

func queryProbes(out map[string]float64) {
	rng := mustCompile(query.Spec{Collection: "c", Filter: map[string]any{"v": map[string]any{"$gte": float64(500), "$lt": float64(510)}}})
	docs := make([]document.Document, 64)
	for i := range docs {
		docs[i] = flatDoc(480 + i)
	}
	i := 0
	out["query.match_range_ns"] = perOp(func() { i++; sink = rng.Match(docs[i%len(docs)]) })

	complexSpec := query.Spec{Collection: "c", Filter: map[string]any{
		"$or": []any{
			map[string]any{"user.geo.lat": map[string]any{"$gt": float64(10)}, "user.tags": "beta"},
			map[string]any{"items.qty": map[string]any{"$in": []any{float64(7), float64(9)}}},
		},
		"h": map[string]any{"$lt": float64(50)},
	}}
	cq := mustCompile(complexSpec)
	nested := make([]document.Document, 64)
	for i := range nested {
		nested[i] = nestedDoc(i)
	}
	out["query.match_complex_ns"] = perOp(func() { i++; sink = cq.Match(nested[i%len(nested)]) })

	out["query.compile_ns"] = perOp(func() {
		i++
		sink = mustCompile(query.Spec{Collection: "c", Filter: map[string]any{
			"v": map[string]any{"$gte": float64(i), "$lt": float64(i + 10)},
		}})
	})

	sorted := mustCompile(query.Spec{Collection: "c", Filter: map[string]any{"g": float64(1)}, Sort: []query.SortKey{{Path: "r", Desc: true}}, Limit: 10})
	out["query.sort_compare_ns"] = perOp(func() { i++; sink = sorted.Compare(docs[i%len(docs)], docs[(i+7)%len(docs)]) })
}

func wireProbes(out map[string]float64) {
	write := &core.Envelope{Kind: core.KindWrite, Write: &core.WriteEvent{
		Tenant: "default", SentNs: 1,
		Image: &document.AfterImage{Collection: "ws", Key: "d7", Version: 9, Op: document.OpUpdate, Doc: nestedDoc(7)},
	}}
	notif := &core.Envelope{Kind: core.KindNotification, Notification: &core.Notification{
		Tenant: "default", QueryID: core.QueryIDString(0xfeedfacecafebeef), Type: core.MatchChange,
		Key: "d7", Doc: nestedDoc(7), Version: 9, Index: -1, Seq: 3, Origin: "m1.0", WriteNs: 1, IngestNs: 2, MatchNs: 3,
	}}
	var buf []byte
	encode := func(e *core.Envelope) func() {
		return func() {
			var err error
			if buf, err = core.AppendEnvelope(buf[:0], e); err != nil {
				panic(err)
			}
		}
	}
	decode := func(e *core.Envelope) func() {
		data, err := core.AppendEnvelope(nil, e)
		if err != nil {
			panic(err)
		}
		return func() {
			env, err := core.DecodeWire(data)
			if err != nil {
				panic(err)
			}
			sink = env
		}
	}
	out["wire.write_encode_ns"] = perOp(encode(write))
	out["wire.encode_allocs"] = allocsPerOp(encode(write))
	out["wire.write_decode_ns"] = perOp(decode(write))
	out["wire.notify_encode_ns"] = perOp(encode(notif))
	out["wire.notify_decode_ns"] = perOp(decode(notif))
}

func busProbes(out map[string]float64) {
	payload := make([]byte, 1100) // a write-stream write envelope
	roundtrip := func(bus eventlayer.Bus) func() {
		sub, err := bus.Subscribe("probe.t")
		if err != nil {
			panic(err)
		}
		// A publish before the subscription has reached the broker is lost:
		// repeat until one comes back.
		for settled := false; !settled; {
			if err := bus.Publish("probe.t", payload); err != nil {
				panic(err)
			}
			select {
			case <-sub.C():
				settled = true
			case <-time.After(20 * time.Millisecond):
			}
		}
		for len(sub.C()) > 0 {
			<-sub.C()
		}
		return func() {
			if err := bus.Publish("probe.t", payload); err != nil {
				panic(err)
			}
			sink = <-sub.C()
		}
	}
	mem := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	defer mem.Close()
	out["bus.mem_publish_ns"] = perOp(roundtrip(mem))

	srv, err := tcp.Serve("127.0.0.1:0", tcp.ServerOptions{})
	if err != nil {
		panic(err)
	}
	defer srv.Close()
	cl, err := tcp.Dial(srv.Addr(), tcp.ClientOptions{})
	if err != nil {
		panic(err)
	}
	defer cl.Close()
	out["bus.tcp_roundtrip_us"] = perOp(roundtrip(cl)) / 1e3
}
