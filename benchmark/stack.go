package main

import (
	"fmt"

	"invalidb"
)

// broker is what the harness needs of the *tcp.Server ServeBroker returns;
// naming that type would need an internal import.
type broker interface {
	Addr() string
	Close() error
	Stats() (published, delivered, dropped uint64)
}

// stack is the full in-process deployment as it ships by default: document
// store, TCP event-layer broker on loopback with one client each for
// cluster and application server, a 2x2 unthrottled matching grid, the
// application server, and the gateway the harness talks to. Every option
// not named here is left at its default.
type stack struct {
	db      *invalidb.DB
	broker  broker
	buses   []invalidb.Bus
	cluster *invalidb.Cluster
	srv     *invalidb.Server
	gw      *invalidb.Gateway
}

// bootStack starts the stack. A non-nil tracer interposes the bench-tagged
// tracedBus between the event layer and its two users; end-to-end numbers
// are always taken without.
func bootStack(tracer busTracer) (st *stack, err error) {
	st = &stack{db: invalidb.OpenDB(invalidb.DBOptions{})}
	defer func() {
		if err != nil {
			st.close()
		}
	}()
	br, err := invalidb.ServeBroker("127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("serve broker: %w", err)
	}
	st.broker = br
	dial := func(role string) (invalidb.Bus, error) {
		b, err := invalidb.DialBroker(st.broker.Addr())
		if err != nil {
			return nil, fmt.Errorf("dial broker for %s: %w", role, err)
		}
		st.buses = append(st.buses, b)
		if tracer != nil {
			b = tracer.wrap(b)
		}
		return b, nil
	}
	cbus, err := dial("cluster")
	if err != nil {
		return nil, err
	}
	st.cluster, err = invalidb.NewCluster(cbus, invalidb.ClusterOptions{
		QueryPartitions: 2,
		WritePartitions: 2,
		NodeCapacity:    0,
	})
	if err != nil {
		return nil, fmt.Errorf("new cluster: %w", err)
	}
	if err = st.cluster.Start(); err != nil {
		st.cluster = nil
		return nil, fmt.Errorf("start cluster: %w", err)
	}
	sbus, err := dial("appserver")
	if err != nil {
		return nil, err
	}
	if st.srv, err = invalidb.NewServer(st.db, sbus, invalidb.ServerOptions{}); err != nil {
		return nil, fmt.Errorf("new server: %w", err)
	}
	if st.gw, err = invalidb.ServeGateway(st.srv, "127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("serve gateway: %w", err)
	}
	return st, nil
}

// close tears down edge first, event layer last, and returns once every
// goroutine the stack started has exited.
func (st *stack) close() {
	if st.gw != nil {
		_ = st.gw.Close()
	}
	if st.srv != nil {
		_ = st.srv.Close()
	}
	if st.cluster != nil {
		st.cluster.Stop()
	}
	for _, b := range st.buses {
		_ = b.Close()
	}
	if st.broker != nil {
		_ = st.broker.Close()
	}
}

// counters flattens everything the program itself publishes — the three
// metric registries, the broker's totals, the stage breakdown — into one
// map keyed by the program's own metric names. Per-layer metrics are
// deltas of two of these, looked up by string: a key a later change renames
// turns its metric absent instead of breaking the build.
func (st *stack) counters() map[string]float64 {
	vals := map[string]float64{}
	cs := st.cluster.Metrics().Snapshot()
	for k, v := range cs.Counters {
		vals[k] = float64(v)
	}
	for k, v := range cs.Gauges {
		vals[k] = v
	}
	ss := st.srv.Metrics().Snapshot()
	for k, v := range ss.Counters {
		vals[k] = float64(v)
	}
	for k, v := range ss.Gauges {
		vals[k] = v
	}
	for k, l := range ss.Latencies {
		if l.Count > 0 {
			vals[k+".p50_ms"] = l.P50MS
		}
	}
	gs := st.gw.Metrics().Snapshot()
	for k, v := range gs.Counters {
		vals[k] = float64(v)
	}
	for k, v := range gs.Gauges {
		vals[k] = v
	}
	pub, del, drop := st.broker.Stats()
	vals["broker.published"] = float64(pub)
	vals["broker.delivered"] = float64(del)
	vals["broker.dropped"] = float64(drop)
	return vals
}

// queueDepth samples the deepest task input queue and the acker's open
// ledgers; the run polls it every 100 ms.
func (st *stack) queueDepth() (queueMax int, ackerInflight float64) {
	for _, ts := range st.cluster.Stats() {
		if ts.QueueLen > queueMax {
			queueMax = ts.QueueLen
		}
	}
	return queueMax, st.cluster.Metrics().Snapshot().Gauges["topology.acker.in_flight"]
}
