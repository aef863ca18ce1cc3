package experiments

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/coordinator"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// Defaults for the `-exp resize` scenario: notification continuity and
// latency across a live query-partition resize of a multi-process grid
// (DESIGN.md §13). Two simulated server processes share one bus the way real
// processes share a broker; a coordinator grows the grid 2x2 -> 3x2 while a
// sustained write stream keeps every phase honest.
const (
	// ResizeWriteRate is the sustained write load (ops/s) flowing before,
	// during, and after the resize. Every write matches the measured
	// subscription, so it doubles as the notification rate.
	ResizeWriteRate = 200
	// ResizeChunkSize is the backfill chunk size migrations run with.
	ResizeChunkSize = 256
)

// ResizePoint is one measured live-resize run.
type ResizePoint struct {
	WriteRate int
	Writes    int
	// Before/During/After split the write-to-notification latency stream at
	// the moment AddQueryPartition was called and the moment the fleet
	// converged on the new epoch.
	Before, During, After metrics.Summary
	// ResizeTook is publish-to-convergence for the new epoch.
	ResizeTook time.Duration
	Epoch      uint64
	QP, WP     int
	// Continuity ledger: every key is written exactly once, so every key must
	// be delivered exactly one add event.
	Dropped, Duplicated, Errors int
	// FinalMatch reports whether the maintained result equaled the quiesced
	// pull query at the end of the run.
	FinalMatch bool
	// Migrations counts subscriptions the appserver moved to a new owner;
	// Replayed counts retention-ring writes the matching cells re-applied
	// inside chunk watermark windows while doing so.
	Migrations, Replayed int64
}

// RunResizePoint boots a two-process grid (nodes "a" and "b", two slots
// each), subscribes, sustains writeRate inserts per second, grows the grid
// from 2 to 3 query partitions mid-stream, and audits that no notification
// was dropped or duplicated while measuring per-phase latency.
func RunResizePoint(cfg Config, writeRate int) (ResizePoint, error) {
	cfg = cfg.Defaults()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{BufferSize: 1 << 16})
	defer bus.Close()

	var clusters []*core.Cluster
	for _, name := range []string{"a", "b"} {
		cl, err := core.NewCluster(bus, core.Options{
			NodeID:            name,
			QueryPartitions:   2,
			WritePartitions:   2,
			TickInterval:      20 * time.Millisecond,
			HeartbeatInterval: 20 * time.Millisecond,
			RetentionTime:     5 * time.Second,
			QueueSize:         1 << 15,
		})
		if err != nil {
			return ResizePoint{}, err
		}
		if err := cl.Start(); err != nil {
			return ResizePoint{}, err
		}
		defer cl.Stop()
		clusters = append(clusters, cl)
	}
	coord, err := coordinator.New(bus, coordinator.Options{
		QueryPartitions:   2,
		WritePartitions:   2,
		RepublishInterval: 20 * time.Millisecond,
	})
	if err != nil {
		return ResizePoint{}, err
	}
	if err := coord.Start(); err != nil {
		return ResizePoint{}, err
	}
	defer coord.Stop()
	if !coord.WaitConverged(10 * time.Second) {
		return ResizePoint{}, fmt.Errorf("experiments: grid never converged on the initial map")
	}

	db := storage.Open(storage.Options{Shards: 16, OplogCapacity: 4096})
	srv, err := appserver.New(db, bus, appserver.Options{
		Tenant:               tenant,
		TTL:                  10 * time.Minute,
		EventBuffer:          1 << 14,
		Backfill:             true,
		BackfillChunkSize:    ResizeChunkSize,
		BackfillChunkTimeout: 5 * time.Second,
	})
	if err != nil {
		return ResizePoint{}, err
	}
	defer srv.Close()

	spec := query.Spec{
		Collection: resizeCollection,
		Filter:     map[string]any{"v": map[string]any{"$gte": int64(0)}},
	}
	sub, err := srv.Subscribe(spec)
	if err != nil {
		return ResizePoint{}, err
	}
	if !awaitInitial(sub, 15*time.Second) {
		return ResizePoint{}, fmt.Errorf("experiments: subscription never admitted")
	}

	// Drain notifications: per-key add ledger plus per-phase latency,
	// bucketed by receive time against the resize window markers.
	var (
		mu        sync.Mutex
		adds      = map[string]int{}
		errEvents int
	)
	recBefore := metrics.NewLatencyRecorder()
	recDuring := metrics.NewLatencyRecorder()
	recAfter := metrics.NewLatencyRecorder()
	var resizeStartNs, resizeEndNs atomic.Int64
	drained := make(chan struct{})
	go func() {
		defer close(drained)
		for ev := range sub.C() {
			switch ev.Type {
			case appserver.EventError:
				mu.Lock()
				errEvents++
				mu.Unlock()
			case appserver.EventAdd:
				now := time.Now().UnixNano()
				mu.Lock()
				adds[ev.Key]++
				mu.Unlock()
				ts, ok := ev.Doc["sentNs"].(int64)
				if !ok {
					continue
				}
				lat := time.Duration(now - ts)
				rs, re := resizeStartNs.Load(), resizeEndNs.Load()
				switch {
				case rs == 0 || now < rs:
					recBefore.Record(lat)
				case re == 0 || now < re:
					recDuring.Record(lat)
				default:
					recAfter.Record(lat)
				}
			}
		}
	}()

	// Sustained open-loop writer: sentNs carries the scheduled send time, so
	// client-side queueing counts against the system, not for it.
	stopWrites := make(chan struct{})
	var writerWG sync.WaitGroup
	var writes atomic.Int64
	writerWG.Add(1)
	go func() {
		defer writerWG.Done()
		start := time.Now()
		sent := 0
		for {
			select {
			case <-stopWrites:
				return
			default:
			}
			due := int(time.Since(start).Seconds() * float64(writeRate))
			for sent < due {
				opDue := start.Add(time.Duration(float64(sent) / float64(writeRate) * float64(time.Second)))
				d := document.Document{
					"_id":    fmt.Sprintf("r%06d", sent),
					"v":      int64(sent),
					"sentNs": opDue.UnixNano(),
				}
				if err := srv.Insert(resizeCollection, d); err == nil {
					writes.Add(1)
				}
				sent++
			}
			time.Sleep(time.Millisecond)
		}
	}()

	// Phase 1: steady state. Phase 2: resize published, fleet migrating.
	// Phase 3: steady state on the widened grid.
	time.Sleep(cfg.Measure)
	resizeStartNs.Store(time.Now().UnixNano())
	if err := coord.AddQueryPartition(); err != nil {
		close(stopWrites)
		writerWG.Wait()
		return ResizePoint{}, err
	}
	if !coord.WaitConverged(30 * time.Second) {
		close(stopWrites)
		writerWG.Wait()
		return ResizePoint{}, fmt.Errorf("experiments: grid never converged on the resized map")
	}
	resizeEndNs.Store(time.Now().UnixNano())
	took := time.Duration(resizeEndNs.Load() - resizeStartNs.Load())
	time.Sleep(cfg.Measure)
	close(stopWrites)
	writerWG.Wait()
	total := int(writes.Load())

	// Continuity audit against the quiesced pull query: wait for the tail of
	// in-flight notifications, then require the exactly-once ledger and the
	// maintained result to both hold.
	finalMatch := false
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		want, err := srv.Query(spec)
		if err != nil {
			return ResizePoint{}, err
		}
		mu.Lock()
		delivered := len(adds)
		mu.Unlock()
		if delivered >= total && len(sub.Result()) == len(want) {
			finalMatch = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	time.Sleep(200 * time.Millisecond) // let straggling duplicates land before auditing
	_ = sub.Close()
	<-drained

	dropped, duplicated := 0, 0
	mu.Lock()
	for i := 0; i < total; i++ {
		switch n := adds[fmt.Sprintf("r%06d", i)]; {
		case n == 0:
			dropped++
		case n > 1:
			duplicated++
		}
	}
	errs := errEvents
	mu.Unlock()

	var replayed int64
	for _, cl := range clusters {
		replayed += cl.Metrics().Counter("backfill.replayed").Value()
	}
	m := coord.CurrentMap()
	return ResizePoint{
		WriteRate: writeRate, Writes: total,
		Before: recBefore.Snapshot(), During: recDuring.Snapshot(), After: recAfter.Snapshot(),
		ResizeTook: took,
		//invalidb:allow epochcapture the experiment report records the epoch's shape as data, it never routes by it
		Epoch: m.Epoch, QP: m.QueryPartitions, WP: m.WritePartitions,
		Dropped: dropped, Duplicated: duplicated, Errors: errs,
		FinalMatch: finalMatch,
		Migrations: srv.Metrics().Counter("appserver.migrations").Value(),
		Replayed:   replayed,
	}, nil
}

const resizeCollection = "resize"

// RenderResize prints the per-phase latency table and the continuity ledger.
func RenderResize(p ResizePoint) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Live grid resize under sustained writes — 2x2 -> %dx%d (AddQueryPartition), %d writes/s, two simulated server processes\n",
		p.QP, p.WP, p.WriteRate)
	fmt.Fprintf(&b, "%-8s %8s %9s %9s %9s\n", "phase", "notifs", "p50", "p99", "max")
	for _, row := range []struct {
		name string
		s    metrics.Summary
	}{{"before", p.Before}, {"during", p.During}, {"after", p.After}} {
		fmt.Fprintf(&b, "%-8s %8d %7.1fms %7.1fms %7.1fms\n",
			row.name, row.s.Count, row.s.P50MS, row.s.P99MS, row.s.MaxMS)
	}
	fmt.Fprintf(&b, "epoch %d converged in %v; %d subscription migrations, %d watermark-window replays\n",
		p.Epoch, p.ResizeTook.Round(time.Millisecond), p.Migrations, p.Replayed)
	fmt.Fprintf(&b, "continuity: %d writes, %d dropped, %d duplicated, %d error events; final result matches pull query: %v\n",
		p.Writes, p.Dropped, p.Duplicated, p.Errors, p.FinalMatch)
	return b.String()
}
