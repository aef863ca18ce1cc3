// Package gateway implements the client-facing proxy of the production
// architecture (paper Figure 1 and §7.2): end-user devices — web and mobile
// apps — connect to a proxy that multiplexes their real-time query
// subscriptions over the application server. Each application server at
// Baqend holds a single WebSocket connection to such a proxy; subscriptions
// are fanned out per client with the client-generated subscription id
// tagging every change notification (paper §5, footnote 2).
//
// Real-time query results are shared: thousands of devices subscribe to the
// same query, so delivery cost must scale with distinct queries, not
// clients. The gateway therefore runs a shared fan-out engine (DESIGN.md
// §14): client subscriptions with the same query dedupe onto one upstream
// appserver.Subscription per distinct query, keyed by the tenant-scoped
// fixed64 query hash and refcounted so the last unsubscribe tears the
// upstream down. Each event is encoded exactly once per query — the shared
// JSON body is serialized a single time and broadcast by splicing only the
// per-client subscription id into a reusable frame header — and delivery is
// parallelized across sharded fan-out workers. Per-client outbound queues
// are byte-budgeted: a slow consumer sheds data events (newest first) and
// receives a resync marker so it can repair with a pull query, mirroring
// the broker's session-drop discipline.
//
// The wire protocol is newline-delimited JSON over TCP (a WebSocket
// stand-in): requests carry an op ("hello", "subscribe", "unsubscribe",
// "insert", "update", "delete", "query") and responses carry events or
// results tagged with the request's id, plus "resync" markers after shed
// events.
package gateway

import (
	"fmt"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"

	"invalidb/internal/appserver"
	"invalidb/internal/document"
	"invalidb/internal/metrics"
	"invalidb/internal/query"
	"invalidb/internal/ratelimit"
)

// Request is one client frame.
type Request struct {
	Op string `json:"op"`
	// ID tags subscriptions and correlates responses.
	ID string `json:"id,omitempty"`
	// Tenant identifies the application on a "hello" frame; connections
	// that skip hello run under the appserver's tenant.
	Tenant string `json:"tenant,omitempty"`
	// Query for "subscribe" and "query".
	Query *query.Spec `json:"query,omitempty"`
	// Collection/Key/Doc/Update for write operations.
	Collection string            `json:"collection,omitempty"`
	Key        string            `json:"key,omitempty"`
	Doc        document.Document `json:"doc,omitempty"`
	Update     map[string]any    `json:"update,omitempty"`
}

// Response is one server frame.
type Response struct {
	Op string `json:"op"` // "event", "result", "ok", "error", "resync"
	ID string `json:"id,omitempty"`
	// Event payload.
	Type  string              `json:"type,omitempty"`
	Key   string              `json:"key,omitempty"`
	Doc   document.Document   `json:"doc,omitempty"`
	Docs  []document.Document `json:"docs,omitempty"`
	Index int                 `json:"index,omitempty"`
	// Error payload.
	Message string `json:"message,omitempty"`
	// Dropped is the connection's cumulative shed-event count, carried on
	// "resync" frames: the client saw a gap and should repair with a pull
	// query (paper §8.1, weak devices).
	Dropped uint64 `json:"dropped,omitempty"`
}

// Quota bounds one tenant's footprint on the gateway. Zero fields are
// unlimited.
type Quota struct {
	// MaxConns caps concurrently admitted connections.
	MaxConns int
	// MaxSubs caps concurrently active subscriptions across the tenant's
	// connections.
	MaxSubs int
	// ConnRate admits at most this many new connections per second
	// (ConnBurst tokens of headroom, minimum 1).
	ConnRate  float64
	ConnBurst float64
	// SubRate admits at most this many new subscriptions per second
	// (SubBurst tokens of headroom, minimum 1).
	SubRate  float64
	SubBurst float64
}

// Options tunes the gateway.
type Options struct {
	// Metrics receives the gateway's counters and gauges. Nil creates a
	// private registry (read back via Server.Metrics). Passing the
	// appserver's registry folds the gateway into the same -obs-addr
	// endpoint.
	Metrics *metrics.Registry
	// OutBudget is the per-connection budget, in bytes, for queued data
	// events. Once they exceed it, further data events are shed (newest
	// first) and a resync marker is delivered; control frames (acks,
	// results, initial results) are never shed and do not count. Default
	// 64 KiB.
	OutBudget int
	// ReadBuffer is the per-connection read buffer size. Default 4 KiB —
	// small, because at 100k connections every KiB here is 100 MB.
	ReadBuffer int
	// Quota maps a tenant name to its admission quota. Nil means no
	// limits. The function is consulted once per tenant, at first sight.
	Quota func(tenant string) Quota
	// Logf receives operational log lines (first-drop notices, quota
	// rejections). Nil discards them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.OutBudget <= 0 {
		o.OutBudget = 64 << 10
	}
	if o.ReadBuffer <= 0 {
		o.ReadBuffer = 4 << 10
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// tenantState tracks one tenant's live footprint and rate limiters.
// Counters are guarded by Server.mu; the buckets lock themselves.
type tenantState struct {
	q          Quota
	conns      int
	subs       int
	rejected   int64
	connBucket *ratelimit.Bucket
	subBucket  *ratelimit.Bucket
}

// Server is the gateway listener plus the shared fan-out engine.
type Server struct {
	srv  *appserver.Server
	ln   net.Listener
	opts Options

	mu      sync.Mutex
	conns   map[*conn]struct{}
	queries map[uint64]*sharedQuery // query hash -> shared upstream
	tenants map[string]*tenantState
	closed  bool

	wg     sync.WaitGroup // accept loop, per-conn loops, fan-out workers
	pumpWG sync.WaitGroup // per-sharedQuery pump goroutines
	done   chan struct{}  // closed after all pumps exit; stops workers

	// fanShards is the number of delivery workers event broadcast is sharded
	// across: min(GOMAXPROCS, 8); at 1 delivery is inline on the pump goroutine.
	fanShards int
	fanJobs   []chan fanJob // workers for shards 1..fanShards-1

	clients   atomic.Int64
	subsTotal atomic.Int64
	connSeq   atomic.Uint64

	reg         *metrics.Registry
	mFanned     *metrics.Int // events delivered (or shed) across all clients
	mEncoded    *metrics.Int // event bodies serialized (once per query per event)
	mBytesSaved *metrics.Int // body bytes NOT re-serialized thanks to sharing
	mDrops      *metrics.Int // data events shed on slow connections
	mResyncs    *metrics.Int // resync markers delivered
	mRejected   *metrics.Int // quota-rejected connections and subscriptions
}

// Serve starts a gateway for the application server on addr
// ("127.0.0.1:0" picks a port).
func Serve(srv *appserver.Server, addr string) (*Server, error) {
	return ServeOptions(srv, addr, Options{})
}

// ServeOptions is Serve with explicit options.
func ServeOptions(srv *appserver.Server, addr string, opts Options) (*Server, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("gateway: listen: %w", err)
	}
	return ServeListener(srv, ln, opts)
}

// ServeListener runs the gateway on an existing listener — e.g. a
// MemListener, which is how the fan-out experiment packs 100k+ mock
// clients onto one box without consuming file descriptors.
func ServeListener(srv *appserver.Server, ln net.Listener, opts Options) (*Server, error) {
	opts = opts.withDefaults()
	g := &Server{
		srv:       srv,
		ln:        ln,
		opts:      opts,
		conns:     map[*conn]struct{}{},
		queries:   map[uint64]*sharedQuery{},
		tenants:   map[string]*tenantState{},
		done:      make(chan struct{}),
		fanShards: min(runtime.GOMAXPROCS(0), 8),
	}
	g.registerMetrics()
	for i := 1; i < g.fanShards; i++ {
		ch := make(chan fanJob, 1)
		g.fanJobs = append(g.fanJobs, ch)
		g.wg.Add(1)
		go g.fanWorker(ch)
	}
	g.wg.Add(1)
	go g.acceptLoop()
	return g, nil
}

func (g *Server) registerMetrics() {
	reg := g.opts.Metrics
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	g.reg = reg
	g.mFanned = reg.Counter("gateway.events.fanout")
	g.mEncoded = reg.Counter("gateway.events.encoded")
	g.mBytesSaved = reg.Counter("gateway.encode.bytes_saved")
	g.mDrops = reg.Counter("gateway.client.drops")
	g.mResyncs = reg.Counter("gateway.client.resyncs")
	g.mRejected = reg.Counter("gateway.quota.rejected")
	reg.Gauge("gateway.clients", func() float64 { return float64(g.clients.Load()) })
	reg.Gauge("gateway.subscriptions", func() float64 { return float64(g.subsTotal.Load()) })
	reg.Gauge("gateway.queries", func() float64 { return float64(g.DistinctQueries()) })
	reg.Gauge("gateway.dedup_ratio", func() float64 { return g.DedupRatio() })
	reg.Collect(func(emit func(name string, v float64)) {
		g.mu.Lock()
		defer g.mu.Unlock()
		for name, ts := range g.tenants {
			emit("gateway.tenant."+name+".conns", float64(ts.conns))
			emit("gateway.tenant."+name+".subs", float64(ts.subs))
			emit("gateway.tenant."+name+".rejected", float64(ts.rejected))
		}
	})
}

// Addr returns the gateway's listen address.
func (g *Server) Addr() string { return g.ln.Addr().String() }

// Metrics returns the registry the gateway reports into.
func (g *Server) Metrics() *metrics.Registry { return g.reg }

// Clients reports currently connected end-user clients.
func (g *Server) Clients() int64 { return g.clients.Load() }

// Subscriptions reports currently active client subscriptions.
func (g *Server) Subscriptions() int64 { return g.subsTotal.Load() }

// DistinctQueries reports live upstream subscriptions — one per distinct
// query, regardless of how many clients share each.
func (g *Server) DistinctQueries() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.queries)
}

// DedupRatio is client subscriptions per upstream subscription — the
// fan-out sharing factor (1000 clients on 1 query reads as 1000).
func (g *Server) DedupRatio() float64 {
	subs := g.subsTotal.Load()
	q := g.DistinctQueries()
	if q == 0 {
		return 0
	}
	r := float64(subs) / float64(q)
	if math.IsNaN(r) {
		return 0
	}
	return r
}

// Close stops the listener and disconnects all clients. The application
// server is left running.
func (g *Server) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	conns := make([]*conn, 0, len(g.conns))
	for c := range g.conns {
		conns = append(conns, c)
	}
	g.mu.Unlock()
	err := g.ln.Close()
	for _, c := range conns {
		c.close()
	}
	// Closing every conn released every shared query, which closed every
	// upstream; wait for the pumps (they may still be mid-broadcast and
	// waiting on fan-out workers), then stop the workers.
	g.pumpWG.Wait()
	close(g.done)
	g.wg.Wait()
	return err
}

func (g *Server) acceptLoop() {
	defer g.wg.Done()
	for {
		nc, err := g.ln.Accept()
		if err != nil {
			return
		}
		nShards := g.fanShards
		c := &conn{
			g:     g,
			nc:    nc,
			shard: int(g.connSeq.Add(1)) % nShards,
			subs:  map[string]*sharedQuery{},
		}
		c.outCond.L = &c.outMu
		g.mu.Lock()
		if g.closed {
			g.mu.Unlock()
			_ = nc.Close()
			return
		}
		g.conns[c] = struct{}{}
		g.mu.Unlock()
		g.clients.Add(1)
		g.wg.Add(2)
		go c.readLoop()
		go c.writeLoop()
	}
}

// tenantFor returns the tenant's state, creating it (and its buckets,
// sized from Options.Quota) on first sight. Callers hold g.mu.
func (g *Server) tenantFor(name string) *tenantState {
	ts := g.tenants[name]
	if ts != nil {
		return ts
	}
	ts = &tenantState{}
	if g.opts.Quota != nil {
		ts.q = g.opts.Quota(name)
		if ts.q.ConnRate > 0 {
			ts.connBucket = ratelimit.New(ts.q.ConnRate, admissionBurst(ts.q.ConnRate, ts.q.ConnBurst))
		}
		if ts.q.SubRate > 0 {
			ts.subBucket = ratelimit.New(ts.q.SubRate, admissionBurst(ts.q.SubRate, ts.q.SubBurst))
		}
	}
	g.tenants[name] = ts
	return ts
}

// admissionBurst floors the burst at one token: TryTake never overdraws,
// so a sub-token burst (ratelimit's 5% default at low rates) would reject
// everything forever.
func admissionBurst(rate, burst float64) float64 {
	if burst <= 0 {
		burst = rate * ratelimit.DefaultBurstFraction
	}
	if burst < 1 {
		burst = 1
	}
	return burst
}

// admitConn runs the tenant quota check for a connection's first frame.
// A rejected connection gets one error frame (echoing the frame's request
// id so synchronous clients fail fast) and is closed once it drains.
func (g *Server) admitConn(c *conn, tenant, reqID string) bool {
	if tenant == "" {
		tenant = g.srv.Tenant()
	}
	g.mu.Lock()
	ts := g.tenantFor(tenant)
	ok := ts.q.MaxConns <= 0 || ts.conns < ts.q.MaxConns
	if ok && ts.connBucket != nil && !ts.connBucket.TryTake(1) {
		ok = false
	}
	if ok {
		ts.conns++
	} else {
		ts.rejected++
	}
	g.mu.Unlock()
	c.mu.Lock()
	c.tenant = tenant
	c.admitted = ok
	c.mu.Unlock()
	if !ok {
		g.mRejected.Inc()
		g.opts.Logf("gateway: tenant %q connection rejected by quota", tenant)
		c.sendError(reqID, "tenant connection quota exceeded")
		c.closeWhenDrained()
	}
	return ok
}

// admitSub reserves one subscription slot for the connection's tenant.
func (g *Server) admitSub(c *conn) bool {
	g.mu.Lock()
	ts := g.tenantFor(c.tenant)
	ok := ts.q.MaxSubs <= 0 || ts.subs < ts.q.MaxSubs
	if ok && ts.subBucket != nil && !ts.subBucket.TryTake(1) {
		ok = false
	}
	if ok {
		ts.subs++
	} else {
		ts.rejected++
	}
	g.mu.Unlock()
	if ok {
		g.subsTotal.Add(1)
	} else {
		g.mRejected.Inc()
	}
	return ok
}

// releaseSub returns a subscription slot.
func (g *Server) releaseSub(tenant string) {
	g.mu.Lock()
	if ts := g.tenants[tenant]; ts != nil && ts.subs > 0 {
		ts.subs--
	}
	g.mu.Unlock()
	g.subsTotal.Add(-1)
}

// dropConn unregisters a closed connection.
func (g *Server) dropConn(c *conn, tenant string, admitted bool) {
	g.mu.Lock()
	delete(g.conns, c)
	if admitted {
		if ts := g.tenants[tenant]; ts != nil && ts.conns > 0 {
			ts.conns--
		}
	}
	g.mu.Unlock()
	g.clients.Add(-1)
}
