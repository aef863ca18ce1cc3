package appserver

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

func backfillEnv(t *testing.T, clusterOpts core.Options, serverOpts Options) *env {
	t.Helper()
	serverOpts.Backfill = true
	if serverOpts.BackfillChunkSize == 0 {
		serverOpts.BackfillChunkSize = 16
	}
	if serverOpts.BackfillChunkTimeout == 0 {
		serverOpts.BackfillChunkTimeout = 500 * time.Millisecond
	}
	return newEnv(t, clusterOpts, serverOpts)
}

func TestBackfillDeliversFullInitialResult(t *testing.T) {
	e := backfillEnv(t, core.Options{QueryPartitions: 2, WritePartitions: 2}, Options{})
	for i := 0; i < 100; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "grp": int64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{Collection: "c", Filter: map[string]any{"grp": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventInitial)
	if len(ev.Docs) != 50 {
		t.Fatalf("initial result has %d docs, want 50", len(ev.Docs))
	}
	// The subscription is live after admission: a matching write arrives as
	// a regular add event.
	if err := e.server.Insert("c", document.Document{"_id": "late", "grp": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if got := waitEvent(t, sub, EventAdd); got.Key != "late" {
		t.Fatalf("post-admission add delivered %q, want %q", got.Key, "late")
	}
}

// dropFirstStart is a Bus that loses the first BackfillStart published on it.
type dropFirstStart struct {
	eventlayer.Bus
	dropped atomic.Bool
}

func (b *dropFirstStart) Publish(topic string, data []byte) error {
	if env, err := core.DecodeWire(data); err == nil && env.Kind == core.KindBackfillStart && b.dropped.CompareAndSwap(false, true) {
		return nil
	}
	return b.Bus.Publish(topic, data)
}

// TestBackfillSurvivesALostStart: the start announcing a backfill is lost, so
// no cell of the query's row installs it and every chunk goes uncertified.
// The chunk timeout re-announces the backfill before it re-sends, and the
// subscription is admitted with the pull result.
func TestBackfillSurvivesALostStart(t *testing.T) {
	lossy := &dropFirstStart{}
	e := newEnvVia(t, core.Options{QueryPartitions: 2, WritePartitions: 2},
		Options{Backfill: true, BackfillChunkSize: 16, BackfillChunkTimeout: 100 * time.Millisecond},
		func(b eventlayer.Bus) eventlayer.Bus { lossy.Bus = b; return lossy })
	for i := 0; i < 40; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "grp": int64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{Collection: "c", Filter: map[string]any{"grp": 1}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	if ev := waitEvent(t, sub, EventInitial); len(ev.Docs) != 20 {
		t.Fatalf("initial result has %d docs, want 20", len(ev.Docs))
	}
	if !lossy.dropped.Load() {
		t.Fatal("no BackfillStart was published, so none was lost")
	}
	if err := e.server.Insert("c", document.Document{"_id": "late", "grp": int64(1)}); err != nil {
		t.Fatal(err)
	}
	if got := waitEvent(t, sub, EventAdd); got.Key != "late" {
		t.Fatalf("post-admission add delivered %q, want %q", got.Key, "late")
	}
	waitResult(t, e, sub, spec)
}

func TestBackfillUnderSustainedWrites(t *testing.T) {
	// The virtual-cut guarantee under full write load: a backfilled
	// subscription's result after quiescing equals the pull query's — no
	// lost keys, no resurrected deletes, no duplicates.
	e := backfillEnv(t, core.Options{QueryPartitions: 2, WritePartitions: 2}, Options{})
	for i := 0; i < 80; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%03d", i), "x": int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	var flips atomic.Int64
	go func() {
		defer close(writerDone)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			key := fmt.Sprintf("k%03d", i%80)
			// Key parity XOR pass parity flips membership in and out of the
			// result while the backfill reads chunks, so every chunk has
			// in-window writes to reconcile.
			x := int64((i%80 + i/80) % 2)
			if err := e.server.Update("c", key, map[string]any{"$set": map[string]any{"x": x}}); err == nil {
				flips.Add(1)
			}
			time.Sleep(time.Millisecond)
		}
	}()

	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": int64(1)}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	waitEvent(t, sub, EventInitial)
	close(stop)
	<-writerDone
	if flips.Load() == 0 {
		t.Fatal("writer made no progress during the backfill")
	}
	waitResult(t, e, sub, spec)
}

func TestBackfillOrderedQueryFallsBackToBootstrap(t *testing.T) {
	e := backfillEnv(t, core.Options{}, Options{})
	for i := 0; i < 10; i++ {
		if err := e.server.Insert("c", document.Document{"_id": fmt.Sprintf("k%d", i), "x": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	spec := query.Spec{
		Collection: "c",
		Filter:     map[string]any{"x": map[string]any{"$gte": 0}},
		Sort:       []query.SortKey{{Path: "x", Desc: true}},
		Limit:      3,
	}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventInitial)
	if len(ev.Docs) != 3 {
		t.Fatalf("ordered bootstrap returned %d docs, want 3", len(ev.Docs))
	}
	if ev.Docs[0]["_id"] != "k9" {
		t.Fatalf("ordered bootstrap top doc = %v, want k9", ev.Docs[0]["_id"])
	}
}

func TestBackfillEmptyResultAdmits(t *testing.T) {
	e := backfillEnv(t, core.Options{WritePartitions: 2}, Options{})
	spec := query.Spec{Collection: "c", Filter: map[string]any{"never": true}}
	sub, err := e.server.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	ev := waitEvent(t, sub, EventInitial)
	if len(ev.Docs) != 0 {
		t.Fatalf("empty backfill delivered %d docs", len(ev.Docs))
	}
}

// chunkDropBus drops BackfillChunk envelopes while armed, simulating an
// event layer that loses chunk messages (and with them the certificates).
type chunkDropBus struct {
	eventlayer.Bus
	dropChunks atomic.Bool
}

func (b *chunkDropBus) Publish(topic string, payload []byte) error {
	if b.dropChunks.Load() {
		if env, err := core.DecodeWire(payload); err == nil && env.Kind == core.KindBackfillChunk {
			return nil
		}
	}
	return b.Bus.Publish(topic, payload)
}

func TestBackfillRetriesSurviveDroppedChunks(t *testing.T) {
	// Chunk messages on the queries topic are dropped for a while: the
	// driver must re-send under fresh watermark windows and still admit.
	mem := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	bus := &chunkDropBus{Bus: mem}
	cluster, err := core.NewCluster(bus, core.Options{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
		RetentionTime:     2 * time.Second,
		WritePartitions:   2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	db := storage.Open(storage.Options{})
	srv, err := New(db, bus, Options{
		Backfill:             true,
		BackfillChunkSize:    16,
		BackfillChunkTimeout: 200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := &env{db: db, bus: mem, cluster: cluster, server: srv}
	t.Cleanup(func() {
		_ = srv.Close()
		cluster.Stop()
		_ = mem.Close()
	})

	for i := 0; i < 40; i++ {
		if err := srv.Insert("c", document.Document{"_id": fmt.Sprintf("k%02d", i), "x": int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	bus.dropChunks.Store(true)
	spec := query.Spec{Collection: "c", Filter: map[string]any{"x": int64(1)}}
	sub, err := srv.Subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	// Let at least one chunk time out, then heal the topic.
	time.Sleep(400 * time.Millisecond)
	bus.dropChunks.Store(false)
	waitEvent(t, sub, EventInitial)
	if got := srv.Metrics().Counter("backfill.retries").Value(); got == 0 {
		t.Fatal("expected at least one chunk retry while the topic dropped chunks")
	}
	waitResult(t, e, sub, spec)
}
