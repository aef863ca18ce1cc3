package experiments

import (
	"fmt"
	"sync"
	"time"

	"invalidb/internal/baselines/logtailing"
	"invalidb/internal/baselines/pollanddiff"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/loadgen"
	"invalidb/internal/metrics"
	"invalidb/internal/storage"
)

// runLogTailingPoint drives the log-tailing baseline with the same workload
// as the InvaliDB comparison point: FixedQueries active queries and a write
// rate beyond one node's matching capacity. Because the write stream cannot
// be partitioned, the single tailer node falls behind and notification
// latency collapses (paper §3.1).
func runLogTailingPoint(cfg Config, opsPerSec int) (BaselineResult, error) {
	cfg = cfg.Defaults()
	db := storage.Open(storage.Options{Shards: 16, OplogCapacity: 1 << 18})
	engine := logtailing.New(db, logtailing.Options{NodeCapacity: cfg.NodeCapacity})
	defer engine.Close()

	w := loadgen.New(1, cfg.MatchingQueries)
	matching := cfg.MatchingQueries
	recorder := metrics.NewLatencyRecorder()
	delivered := 0
	done := make(chan struct{})
	events := make(chan logtailing.Event, 1<<15)
	var forwarders sync.WaitGroup
	for i, spec := range w.Queries(FixedQueries, matching) {
		sub, _, err := engine.Subscribe(spec)
		if err != nil {
			return BaselineResult{}, fmt.Errorf("log tailing subscribe %d: %w", i, err)
		}
		forwarders.Add(1)
		go func(c <-chan logtailing.Event) {
			defer forwarders.Done()
			for ev := range c {
				select {
				case events <- ev:
				default:
				}
			}
		}(sub.C())
	}
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Type != core.MatchAdd || ev.Doc == nil {
				continue
			}
			if ts, ok := ev.Doc["sentNs"].(int64); ok {
				recorder.Record(time.Duration(time.Now().UnixNano() - ts))
				delivered++
			}
		}
	}()

	write := func(d document.Document) error {
		_, err := db.C(loadgen.Collection).Insert(d)
		return err
	}
	runLoad(cfg.Warmup, opsPerSec, 0, w, nil, write)
	expected := runLoad(cfg.Measure, opsPerSec, cfg.TargetNotifsPerSec, w, stamp, write)
	time.Sleep(cfg.Drain)
	// Shutdown order matters: closing the engine ends the subscription
	// channels, the forwarders drain out, and only then may the shared sink
	// close.
	writes, matchOps := engine.Stats()
	engine.Close()
	forwarders.Wait()
	close(events)
	<-done
	p := Point{
		WP: 1, Queries: FixedQueries, OpsPerSec: opsPerSec,
		Summary: recorder.Snapshot(), Delivered: delivered, Expected: expected,
	}
	return BaselineResult{
		Mechanism: "Log tailing (single node)",
		Point:     p,
		Note: fmt.Sprintf("sustained=%v tailer processed %d writes (%d match-ops)",
			p.SustainedUnder(baselineSLA), writes, matchOps),
	}, nil
}

// runPollAndDiffPoint quantifies poll-and-diff: staleness bounded only by
// the poll interval, and a pull-query load on the database proportional to
// the number of subscriptions (paper §3.1: 1 000 subscriptions at a 10s
// interval are 100 queries/s).
func runPollAndDiffPoint(cfg Config) (BaselineResult, error) {
	cfg = cfg.Defaults()
	db := storage.Open(storage.Options{Shards: 16, OplogCapacity: 1 << 16})
	engine := pollanddiff.New(db, pollanddiff.Options{Interval: scaledPollInterval})
	defer engine.Close()

	w := loadgen.New(1, cfg.MatchingQueries)
	recorder := metrics.NewLatencyRecorder()
	delivered := 0
	done := make(chan struct{})
	events := make(chan pollanddiff.Event, 1<<15)
	var forwarders sync.WaitGroup
	for i, spec := range w.Queries(FixedQueries, cfg.MatchingQueries) {
		sub, err := engine.Subscribe(spec)
		if err != nil {
			return BaselineResult{}, fmt.Errorf("poll-and-diff subscribe %d: %w", i, err)
		}
		forwarders.Add(1)
		go func(c <-chan pollanddiff.Event) {
			defer forwarders.Done()
			for ev := range c {
				select {
				case events <- ev:
				default:
				}
			}
		}(sub.C())
	}
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Type != core.MatchAdd || ev.Doc == nil {
				continue
			}
			if ts, ok := ev.Doc["sentNs"].(int64); ok {
				recorder.Record(time.Duration(time.Now().UnixNano() - ts))
				delivered++
			}
		}
	}()

	queriesBefore, start := engine.DBQueries.Value(), time.Now()
	write := func(d document.Document) error {
		_, err := db.C(loadgen.Collection).Insert(d)
		return err
	}
	// Modest write rate: poll-and-diff's problem is not write throughput
	// but poll lag and database overhead.
	measure := cfg.Measure
	if measure < 4*scaledPollInterval {
		measure = 4 * scaledPollInterval
	}
	expected := runLoad(measure, 200, cfg.TargetNotifsPerSec, w, stamp, write)
	time.Sleep(scaledPollInterval + cfg.Drain)
	pollRate := float64(engine.DBQueries.Value()-queriesBefore) / time.Since(start).Seconds()
	engine.Close()
	forwarders.Wait()
	close(events)
	<-done

	p := Point{
		Queries: FixedQueries, OpsPerSec: 200,
		Summary: recorder.Snapshot(), Delivered: delivered, Expected: expected,
	}
	return BaselineResult{
		Mechanism: "Poll-and-diff",
		Point:     p,
		Note: fmt.Sprintf("avg staleness=%.0fms (interval %v), database poll load=%.0f queries/s for %d subscriptions",
			p.Summary.AvgMS, scaledPollInterval, pollRate, FixedQueries),
	}, nil
}
