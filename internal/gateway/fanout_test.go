package gateway

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// memStack is stack over a MemListener with explicit gateway options.
func memStack(t *testing.T, opts Options) (*Server, *appserver.Server, *MemListener) {
	t.Helper()
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := core.NewCluster(bus, core.Options{
		TickInterval:      20 * time.Millisecond,
		HeartbeatInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		t.Fatal(err)
	}
	srv, err := appserver.New(storage.Open(storage.Options{}), bus, appserver.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ln := NewMemListener()
	gw, err := ServeListener(srv, ln, opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = gw.Close()
		_ = srv.Close()
		cluster.Stop()
		_ = bus.Close()
	})
	return gw, srv, ln
}

func dialMem(t *testing.T, ln *MemListener, opts ClientOptions) (*Client, error) {
	t.Helper()
	nc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewClient(nc, opts)
	if err != nil {
		return nil, err
	}
	t.Cleanup(func() { _ = c.Close() })
	return c, nil
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestGatewaySharedUpstreamRefcount is the refcount property test: for a
// range of N, N subscribes to the same query share ONE upstream
// subscription; N-1 unsubscribes keep it alive; the Nth closes it.
func TestGatewaySharedUpstreamRefcount(t *testing.T) {
	gw, _ := stack(t)
	c := dial(t, gw)
	spec := query.Spec{Collection: "rc", Filter: map[string]any{"x": int64(1)}}
	for _, n := range []int{1, 2, 7, 23} {
		ids := make([]string, n)
		for i := range ids {
			ids[i] = fmt.Sprintf("rc-%d-%d", n, i)
			if _, err := c.call(Request{Op: "subscribe", ID: ids[i], Query: &spec}); err != nil {
				t.Fatal(err)
			}
		}
		if q := gw.DistinctQueries(); q != 1 {
			t.Fatalf("n=%d: %d upstream queries after %d subscribes, want 1", n, q, n)
		}
		if s := gw.Subscriptions(); s != int64(n) {
			t.Fatalf("n=%d: Subscriptions = %d", n, s)
		}
		for _, id := range ids[:n-1] {
			if _, err := c.call(Request{Op: "unsubscribe", ID: id}); err != nil {
				t.Fatal(err)
			}
		}
		if q := gw.DistinctQueries(); q != 1 {
			t.Fatalf("n=%d: upstream torn down after %d of %d unsubscribes", n, n-1, n)
		}
		if _, err := c.call(Request{Op: "unsubscribe", ID: ids[n-1]}); err != nil {
			t.Fatal(err)
		}
		if q := gw.DistinctQueries(); q != 0 {
			t.Fatalf("n=%d: %d upstream queries after the last unsubscribe, want 0", n, q)
		}
	}
}

// TestGatewayConcurrentSubscribeUnsubscribeClose hammers one connection
// with concurrent subscribe/unsubscribe churn across two distinct queries
// plus a concurrent connection close; meaningful under -race (make race).
func TestGatewayConcurrentSubscribeUnsubscribeClose(t *testing.T) {
	gw, srv := stack(t)
	c := dial(t, gw)
	specs := []query.Spec{
		{Collection: "st", Filter: map[string]any{"x": int64(1)}},
		{Collection: "st", Filter: map[string]any{"x": int64(2)}},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			spec := specs[w%len(specs)]
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := fmt.Sprintf("w%d-%d", w, i)
				if _, err := c.call(Request{Op: "subscribe", ID: id, Query: &spec}); err != nil {
					return // connection closed under us: expected
				}
				if _, err := c.call(Request{Op: "unsubscribe", ID: id}); err != nil {
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			_ = srv.Upsert("st", fmt.Sprintf("k%d", i%8), map[string]any{"$set": map[string]any{"x": int64(1 + i%2)}})
			time.Sleep(time.Millisecond)
		}
	}()
	time.Sleep(300 * time.Millisecond)
	_ = c.Close() // close the conn while churn is in flight
	close(stop)
	wg.Wait()
	waitFor(t, "full teardown", func() bool {
		return gw.Clients() == 0 && gw.DistinctQueries() == 0 && gw.Subscriptions() == 0
	})
}

// TestGatewayEncodeOnceCounters pins the tentpole invariant: one insert
// delivered to K subscribers costs exactly one body serialization and K
// fanned deliveries.
func TestGatewayEncodeOnceCounters(t *testing.T) {
	gw, _ := stack(t)
	c := dial(t, gw)
	const k = 32
	spec := query.Spec{Collection: "eo", Filter: map[string]any{"x": int64(1)}}
	subs := make([]*ClientSub, k)
	for i := range subs {
		sub, err := c.Subscribe(spec)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = sub
	}
	for _, sub := range subs {
		recvFrame(t, sub, "initial")
	}
	encoded0, fanned0 := gw.mEncoded.Value(), gw.mFanned.Value()
	if err := c.Insert("eo", document.Document{"_id": "k1", "x": int64(1)}); err != nil {
		t.Fatal(err)
	}
	for _, sub := range subs {
		if r := recvFrame(t, sub, "add"); r.Key != "k1" {
			t.Fatalf("add = %+v", r)
		}
	}
	if d := gw.mEncoded.Value() - encoded0; d != 1 {
		t.Fatalf("event encoded %d times for %d subscribers, want exactly 1", d, k)
	}
	if d := gw.mFanned.Value() - fanned0; d != k {
		t.Fatalf("fanned %d deliveries, want %d", d, k)
	}
	if r := gw.DedupRatio(); r != k {
		t.Fatalf("DedupRatio = %v, want %d", r, k)
	}
}

// TestGatewaySlowClientShedAndResync: a client that stops reading blows
// through its byte budget, data events are shed, and when it resumes it
// receives a resync marker carrying the cumulative drop count, after which
// live events flow again.
func TestGatewaySlowClientShedAndResync(t *testing.T) {
	gw, srv, ln := memStack(t, Options{OutBudget: 2048})
	nc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	enc := json.NewEncoder(nc)
	spec := query.Spec{Collection: "slow", Filter: map[string]any{"x": int64(1)}}
	if err := enc.Encode(Request{Op: "subscribe", ID: "s", Query: &spec}); err != nil {
		t.Fatal(err)
	}
	r := bufio.NewReaderSize(nc, 1<<10)
	waitLine := func(substr string) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %q on the wire", substr)
			}
			line, err := r.ReadSlice('\n')
			for err == bufio.ErrBufferFull {
				if bytes.Contains(line, []byte(substr)) {
					return
				}
				line, err = r.ReadSlice('\n')
			}
			if err != nil {
				t.Fatalf("read: %v (waiting for %q)", err, substr)
			}
			if bytes.Contains(line, []byte(substr)) {
				return
			}
		}
	}
	waitLine(`"type":"initial"`)

	// Stop reading; flood until the budget forces sheds.
	drops0 := gw.mDrops.Value()
	deadline := time.Now().Add(10 * time.Second)
	i := 0
	for gw.mDrops.Value() == drops0 {
		if time.Now().After(deadline) {
			t.Fatal("no events were shed despite a stalled reader")
		}
		if err := srv.Insert("slow", document.Document{"_id": fmt.Sprintf("d%05d", i), "x": int64(1)}); err != nil {
			t.Fatal(err)
		}
		i++
	}

	// Resume reading: the retained backlog ends with the resync marker.
	waitLine(`"op":"resync"`)

	// The connection is still live: a fresh event lands (retry inserts —
	// early ones may still be shed while the backlog drains).
	got := make(chan struct{})
	go func() {
		waitLine(`"key":"after-resync`)
		close(got)
	}()
	for j := 0; ; j++ {
		if err := srv.Insert("slow", document.Document{"_id": fmt.Sprintf("after-resync-%d", j), "x": int64(1)}); err != nil {
			t.Fatal(err)
		}
		select {
		case <-got:
			if gw.mResyncs.Value() == 0 {
				t.Fatal("resync marker not counted")
			}
			return
		case <-time.After(100 * time.Millisecond):
		}
		if j > 100 {
			t.Fatal("no live events after resync")
		}
	}
}

// TestGatewayLargeInitialDoesNotShedSiblings: a 200 KiB initial result
// waiting in the outbound queue is a control frame — never shed, and not
// charged to the data-event budget — so the data events of another
// subscription on the same connection still get through.
func TestGatewayLargeInitialDoesNotShedSiblings(t *testing.T) {
	gw, srv, ln := memStack(t, Options{}) // default 64 KiB budget
	pad := strings.Repeat("x", 512)
	for i := 0; i < 400; i++ {
		if err := srv.Insert("big", document.Document{"_id": fmt.Sprintf("b%03d", i), "pad": pad}); err != nil {
			t.Fatal(err)
		}
	}
	nc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	enc := json.NewEncoder(nc)
	r := bufio.NewReaderSize(nc, 1<<20)
	sib := query.Spec{Collection: "sib", Filter: map[string]any{"x": int64(1)}}
	if err := enc.Encode(Request{Op: "subscribe", ID: "sib", Query: &sib}); err != nil {
		t.Fatal(err)
	}
	for {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read: %v (waiting for the sibling's initial result)", err)
		}
		if bytes.Contains(line, []byte(`"type":"initial"`)) {
			break
		}
	}

	var c *conn
	waitFor(t, "the connection", func() bool {
		gw.mu.Lock()
		defer gw.mu.Unlock()
		for c = range gw.conns {
		}
		return c != nil
	})
	queued := func() (writing, pending, data int) {
		c.outMu.Lock()
		defer c.outMu.Unlock()
		return len(c.writing), len(c.pending), c.pendingData
	}

	// The reader stalls. The first big initial result fills the 16 KiB pipe
	// and blocks the writer mid-batch; the second then waits in pending.
	big := query.Spec{Collection: "big"}
	if err := enc.Encode(Request{Op: "subscribe", ID: "big1", Query: &big}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "the writer stuck in the first initial result", func() bool {
		writing, pending, _ := queued()
		return writing >= 200<<10 && pending == 0
	})
	if err := enc.Encode(Request{Op: "subscribe", ID: "big2", Query: &big}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "200 KiB of initial result queued", func() bool {
		_, pending, _ := queued()
		return pending >= 200<<10
	})

	const events = 20
	fanned := gw.mFanned.Value()
	for i := 0; i < events; i++ {
		if err := srv.Insert("sib", document.Document{"_id": fmt.Sprintf("s%02d", i), "x": int64(1)}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, "sibling events fanned out", func() bool { return gw.mFanned.Value() >= fanned+events })
	if _, _, data := queued(); data == 0 {
		t.Fatal("sibling data events were not queued behind the initial result")
	}

	// Resume reading: both initial results, every sibling event, no resync.
	seen := 0
	for seen < events {
		line, err := r.ReadBytes('\n')
		if err != nil {
			t.Fatalf("read: %v after %d sibling events", err, seen)
		}
		if bytes.Contains(line, []byte(`"op":"resync"`)) {
			t.Fatalf("resync marker on the wire: %s", line)
		}
		if bytes.Contains(line, []byte(`"id":"sib"`)) && bytes.Contains(line, []byte(`"type":"add"`)) {
			seen++
		}
	}
	if d, rs := gw.mDrops.Value(), gw.mResyncs.Value(); d != 0 || rs != 0 {
		t.Fatalf("drops = %d, resyncs = %d, want 0, 0", d, rs)
	}
}

// TestGatewayTenantQuotas proves a noisy tenant is bounded while others
// are untouched.
func TestGatewayTenantQuotas(t *testing.T) {
	gw, _, ln := memStack(t, Options{Quota: func(tenant string) Quota {
		if tenant == "noisy" {
			return Quota{MaxConns: 2, MaxSubs: 1}
		}
		return Quota{}
	}})
	n1, err := dialMem(t, ln, ClientOptions{Tenant: "noisy"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dialMem(t, ln, ClientOptions{Tenant: "noisy"}); err != nil {
		t.Fatal(err)
	}
	if _, err := dialMem(t, ln, ClientOptions{Tenant: "noisy"}); err == nil {
		t.Fatal("third noisy connection admitted past MaxConns=2")
	}
	if gw.mRejected.Value() == 0 {
		t.Fatal("rejection not counted")
	}

	spec := query.Spec{Collection: "q", Filter: map[string]any{"x": int64(1)}}
	if _, err := n1.call(Request{Op: "subscribe", ID: "a", Query: &spec}); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.call(Request{Op: "subscribe", ID: "b", Query: &spec}); err == nil {
		t.Fatal("second noisy subscription admitted past MaxSubs=1")
	}
	// Releasing the slot re-admits.
	if _, err := n1.call(Request{Op: "unsubscribe", ID: "a"}); err != nil {
		t.Fatal(err)
	}
	if _, err := n1.call(Request{Op: "subscribe", ID: "c", Query: &spec}); err != nil {
		t.Fatal(err)
	}

	// The default tenant is not starved by the noisy one.
	d, err := dialMem(t, ln, ClientOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.call(Request{Op: "subscribe", ID: fmt.Sprintf("d%d", i), Query: &spec}); err != nil {
			t.Fatal(err)
		}
	}
}

// TestGatewayConnRateQuota exercises the TryTake-based admission rate.
func TestGatewayConnRateQuota(t *testing.T) {
	_, _, ln := memStack(t, Options{Quota: func(tenant string) Quota {
		if tenant == "bursty" {
			return Quota{ConnRate: 1, ConnBurst: 2}
		}
		return Quota{}
	}})
	admitted, rejected := 0, 0
	for i := 0; i < 5; i++ {
		if _, err := dialMem(t, ln, ClientOptions{Tenant: "bursty"}); err != nil {
			rejected++
		} else {
			admitted++
		}
	}
	if admitted < 2 || rejected == 0 {
		t.Fatalf("admitted=%d rejected=%d; want the 2-token burst admitted and the tail rejected", admitted, rejected)
	}
}

func TestMemConn(t *testing.T) {
	ln := NewMemListener()
	defer ln.Close()
	type accepted struct {
		nc  net.Conn
		err error
	}
	acc := make(chan accepted, 1)
	go func() {
		nc, err := ln.Accept()
		acc <- accepted{nc, err}
	}()
	client, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	a := <-acc
	if a.err != nil {
		t.Fatal(a.err)
	}
	server := a.nc

	if _, err := client.Write([]byte("ping\n")); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 16)
	n, err := server.Read(buf)
	if err != nil || string(buf[:n]) != "ping\n" {
		t.Fatalf("server read %q, %v", buf[:n], err)
	}
	if _, err := server.Write([]byte("pong\n")); err != nil {
		t.Fatal(err)
	}
	n, err = client.Read(buf)
	if err != nil || string(buf[:n]) != "pong\n" {
		t.Fatalf("client read %q, %v", buf[:n], err)
	}

	// Close tears down both directions: buffered bytes drain, then EOF.
	if _, err := server.Write([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	_ = server.Close()
	n, err = client.Read(buf)
	if err != nil || string(buf[:n]) != "tail" {
		t.Fatalf("drain read %q, %v", buf[:n], err)
	}
	if _, err := client.Read(buf); err == nil {
		t.Fatal("read after peer close did not EOF")
	}
	if _, err := client.Write([]byte("x")); err == nil {
		t.Fatal("write to closed peer accepted")
	}
}

// TestMemConnBackpressure pins the bounded-pipe property the swarm relies
// on: a writer cannot outrun an absent reader by more than the pipe size.
func TestMemConnBackpressure(t *testing.T) {
	ln := NewMemListener()
	defer ln.Close()
	ln.BufSize = 1024
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		_ = nc // never reads
	}()
	client, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	wrote := make(chan int, 1)
	go func() {
		n, _ := client.Write(make([]byte, 4096))
		wrote <- n
	}()
	select {
	case n := <-wrote:
		t.Fatalf("4096B write to a 1024B pipe completed (%d bytes) with no reader", n)
	case <-time.After(200 * time.Millisecond):
	}
	_ = client.Close()
	select {
	case <-wrote:
	case <-time.After(2 * time.Second):
		t.Fatal("blocked write never unwound after close")
	}
}

// TestGatewayUpstreamOverflowReachesEveryClient: when the shared upstream
// subscription overflows (the pump fell more than EventBuffer events
// behind), the application server replaces its backlog by one event with the
// full result. Every client of the shared query receives it as exactly one
// "reconnected" frame — a control frame, so it lands on a connection that is
// over its outbound budget too.
func TestGatewayUpstreamOverflowReachesEveryClient(t *testing.T) {
	gw, srv, ln := memStack(t, Options{OutBudget: 512})
	spec := query.Spec{Collection: "ovf", Filter: map[string]any{"x": int64(1)}}

	var subs []*ClientSub
	for i := 0; i < 2; i++ {
		c, err := dialMem(t, ln, ClientOptions{})
		if err != nil {
			t.Fatal(err)
		}
		sub, err := c.Subscribe(spec)
		if err != nil {
			t.Fatal(err)
		}
		recvFrame(t, sub, "initial")
		subs = append(subs, sub)
	}
	// The third client reads its initial result, then stalls with the writer
	// stuck in a second, large one: data events queue up against the budget.
	pad := strings.Repeat("x", 512)
	for i := 0; i < 100; i++ {
		if err := srv.Insert("big", document.Document{"_id": fmt.Sprintf("b%03d", i), "pad": pad}); err != nil {
			t.Fatal(err)
		}
	}
	nc, err := ln.Dial()
	if err != nil {
		t.Fatal(err)
	}
	defer nc.Close()
	enc := json.NewEncoder(nc)
	r := bufio.NewReaderSize(nc, 1<<20)
	readUntil := func(substr string) (reconnected [][]byte) {
		t.Helper()
		for {
			line, err := r.ReadBytes('\n')
			if err != nil {
				t.Fatalf("read: %v (waiting for %q)", err, substr)
			}
			if bytes.Contains(line, []byte(`"id":"slow"`)) && bytes.Contains(line, []byte(`"type":"reconnected"`)) {
				reconnected = append(reconnected, line)
			}
			if bytes.Contains(line, []byte(substr)) {
				return reconnected
			}
		}
	}
	if err := enc.Encode(Request{Op: "subscribe", ID: "slow", Query: &spec}); err != nil {
		t.Fatal(err)
	}
	readUntil(`"type":"initial"`)
	if err := enc.Encode(Request{Op: "subscribe", ID: "big", Query: &query.Spec{Collection: "big"}}); err != nil {
		t.Fatal(err)
	}

	// Stall the pump of the shared query and write until its upstream
	// subscription overflows.
	hash, err := srv.QueryHash(spec)
	if err != nil {
		t.Fatal(err)
	}
	gw.mu.Lock()
	sq := gw.queries[hash]
	gw.mu.Unlock()
	const docs = 1100 // past the default EventBuffer of 1024 plus the handoff
	sq.mu.Lock()
	for i := 0; i < docs; i++ {
		if err := srv.Insert("ovf", document.Document{"_id": fmt.Sprintf("d%04d", i), "x": int64(1)}); err != nil {
			sq.mu.Unlock()
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for sq.upstream.Dropped() == 0 || len(sq.upstream.Result()) < docs {
		if time.Now().After(deadline) {
			sq.mu.Unlock()
			t.Fatalf("upstream never overflowed: dropped %d, result %d", sq.upstream.Dropped(), len(sq.upstream.Result()))
		}
		time.Sleep(2 * time.Millisecond)
	}
	sq.mu.Unlock()

	// Every reading client: what the handoff still held, then one frame with
	// the full result (and whatever was written after the snapshot).
	for i, sub := range subs {
		if f := recvFrame(t, sub, "reconnected"); len(f.Docs) <= 1024 || len(f.Docs) > docs {
			t.Fatalf("client %d: reconnected frame carries %d documents, want the full result", i, len(f.Docs))
		}
	}
	// The stalled client went over budget meanwhile and still gets the frame.
	waitFor(t, "data events shed on the stalled connection", func() bool { return gw.mDrops.Value() > 0 })
	got := readUntil(`"type":"reconnected"`)
	// Further writes mark the end of the stream (repeated: one may still be
	// shed while the backlog drains): nobody saw a second frame.
	stop, stopped := make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-stopped
	}()
	go func() {
		defer close(stopped)
		for j := 0; ; j++ {
			if err := srv.Insert("ovf", document.Document{"_id": fmt.Sprintf("last-%d", j), "x": int64(1)}); err != nil {
				t.Error(err)
				return
			}
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Millisecond):
			}
		}
	}()
	for i, sub := range subs {
		deadline := time.After(5 * time.Second)
		for last := false; !last; {
			select {
			case f := <-sub.C():
				if f.Type == "reconnected" {
					t.Fatalf("client %d: a second reconnected frame", i)
				}
				last = strings.HasPrefix(f.Key, "last-")
			case <-deadline:
				t.Fatalf("client %d: timed out waiting for the closing write", i)
			}
		}
	}
	if got = append(got, readUntil(`"key":"last-`)...); len(got) != 1 {
		t.Fatalf("stalled client received %d reconnected frames, want 1", len(got))
	}
	var f Response
	if err := json.Unmarshal(got[0], &f); err != nil || len(f.Docs) <= 1024 {
		t.Fatalf("stalled client: reconnected frame carries %d documents (%v), want the full result", len(f.Docs), err)
	}
}
