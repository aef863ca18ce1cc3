package gateway

import (
	"encoding/json"
	"fmt"
	"net"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/document"
)

// discardConn swallows writes instantly, isolating the fan-out engine
// from socket throughput.
type discardConn struct{}

func (discardConn) Read(p []byte) (int, error)  { select {} }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }
func (discardConn) LocalAddr() net.Addr         { return memAddr{} }
func (discardConn) RemoteAddr() net.Addr        { return memAddr{} }
func (discardConn) SetDeadline(time.Time) error { return nil }
func (discardConn) SetReadDeadline(time.Time) error  { return nil }
func (discardConn) SetWriteDeadline(time.Time) error { return nil }

// newFanoutHarness builds a bare fan-out engine (no listener, no
// appserver): one shared query with `targets` subscribers over discard
// connections with live write loops.
func newFanoutHarness(targets, shards int) (*Server, *sharedQuery, []*conn, func()) {
	g := &Server{
		opts:      Options{OutBudget: 1 << 20, ReadBuffer: 1 << 10, Logf: func(string, ...any) {}},
		conns:     map[*conn]struct{}{},
		queries:   map[uint64]*sharedQuery{},
		tenants:   map[string]*tenantState{},
		done:      make(chan struct{}),
		fanShards: shards,
	}
	g.registerMetrics()
	for i := 1; i < shards; i++ {
		ch := make(chan fanJob, 1)
		g.fanJobs = append(g.fanJobs, ch)
		g.wg.Add(1)
		go g.fanWorker(ch)
	}
	sq := &sharedQuery{
		g:        g,
		shards:   make([][]fanTarget, shards),
		snapshot: make([][]fanTarget, shards),
	}
	sq.enc = json.NewEncoder(&sq.bodyBuf)
	conns := make([]*conn, targets)
	for i := range conns {
		c := &conn{g: g, nc: discardConn{}, shard: i % shards, subs: map[string]*sharedQuery{}}
		c.outCond.L = &c.outMu
		g.wg.Add(1)
		go c.writeLoop()
		sq.add(c, fmt.Sprintf("sub-%d", i))
		conns[i] = c
	}
	cleanup := func() {
		for _, c := range conns {
			c.outMu.Lock()
			c.wclosed = true
			c.outCond.Broadcast()
			c.outMu.Unlock()
		}
		close(g.done)
		g.wg.Wait()
	}
	return g, sq, conns, cleanup
}

func benchEvent() appserver.Event {
	return appserver.Event{
		Type:  appserver.EventAdd,
		Key:   "k000042",
		Doc:   document.Document{"_id": "k000042", "random": int64(7), "sentNs": int64(1700000000000000000)},
		Index: -1,
	}
}

// BenchmarkGatewayFanOut measures broadcast cost as subscriber count
// grows: the body is encoded once, so per-delivery cost is a header
// splice (run via bench-smoke).
func BenchmarkGatewayFanOut(b *testing.B) {
	for _, targets := range []int{1, 64, 1024} {
		b.Run(fmt.Sprintf("subs=%d", targets), func(b *testing.B) {
			_, sq, _, cleanup := newFanoutHarness(targets, 1)
			defer cleanup()
			ev := benchEvent()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sq.broadcast(&ev)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.N)*float64(targets)/b.Elapsed().Seconds(), "deliveries/s")
		})
	}
}

// TestGatewayFanOutPerDeliveryAllocs pins the encode-once claim with hard
// numbers: across a broadcast to 256 subscribers, the body is serialized
// exactly once and amortized allocations stay far below one per delivered
// event (the old per-client-marshal design paid ~10 per delivery).
func TestGatewayFanOutPerDeliveryAllocs(t *testing.T) {
	const targets = 256
	g, sq, _, cleanup := newFanoutHarness(targets, 1)
	defer cleanup()
	ev := benchEvent()
	for i := 0; i < 64; i++ { // warm the queue buffers
		sq.broadcast(&ev)
	}
	encoded0, fanned0 := g.mEncoded.Value(), g.mFanned.Value()
	const runs = 200
	allocs := testing.AllocsPerRun(runs, func() {
		sq.broadcast(&ev)
	})
	perDelivery := allocs / targets
	if perDelivery > 0.25 {
		t.Fatalf("%.3f allocs per delivered event (%.1f per broadcast); encode-once regressed", perDelivery, allocs)
	}
	encoded := g.mEncoded.Value() - encoded0
	fanned := g.mFanned.Value() - fanned0
	if encoded < runs || encoded > runs+2 {
		t.Fatalf("encoded %d bodies across ~%d broadcasts; want one per broadcast", encoded, runs)
	}
	if fanned != encoded*targets {
		t.Fatalf("fanned %d deliveries for %d encodes x %d subscribers", fanned, encoded, targets)
	}
	if g.mDrops.Value() != 0 {
		t.Fatalf("%d events shed during the alloc test; budget miscalibrated", g.mDrops.Value())
	}
}
