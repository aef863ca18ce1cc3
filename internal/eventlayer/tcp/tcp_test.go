package tcp

import (
	"bufio"
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"invalidb/internal/eventlayer"
	"invalidb/internal/metrics"
)

func newBroker(t *testing.T) *Server {
	t.Helper()
	srv, err := Serve("127.0.0.1:0", ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	return srv
}

func newClient(t *testing.T, srv *Server) *Client {
	t.Helper()
	c, err := Dial(srv.Addr(), ClientOptions{ReconnectInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = c.Close() })
	return c
}

func recvOne(t *testing.T, sub eventlayer.Subscription) eventlayer.Message {
	t.Helper()
	select {
	case m, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription closed unexpectedly")
		}
		return m
	case <-time.After(3 * time.Second):
		t.Fatal("timed out waiting for message")
		return eventlayer.Message{}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	frames := []frame{
		{op: opPublish, topic: "writes.db1", payload: []byte("payload")},
		{op: opMessage, topic: "t", payload: nil},
		{op: opSubscribe, patterns: []string{"a", "b.*"}},
		{op: opUnsubscribe, patterns: []string{"a"}},
		{op: opPing},
		{op: opPong},
	}
	for i, f := range frames {
		var buf bytes.Buffer
		fw := newFrameWriter(&buf)
		if err := fw.writeFrame(f); err != nil {
			t.Fatalf("frame %d: write: %v", i, err)
		}
		if err := fw.Flush(); err != nil {
			t.Fatalf("frame %d: flush: %v", i, err)
		}
		got, err := readFrame(bufio.NewReader(&buf))
		if err != nil {
			t.Fatalf("frame %d: read: %v", i, err)
		}
		if got.op != f.op || got.topic != f.topic || string(got.payload) != string(f.payload) ||
			fmt.Sprint(got.patterns) != fmt.Sprint(f.patterns) {
			t.Fatalf("frame %d: round trip %+v -> %+v", i, f, got)
		}
	}
}

func TestFrameRejectsGarbage(t *testing.T) {
	inputs := [][]byte{
		{0, 0, 0, 0},             // zero size
		{0xFF, 0xFF, 0xFF, 0xFF}, // oversized
		{0, 0, 0, 1, 99},         // unknown op
		{0, 0, 0, 2, 1, 0},       // short publish body
		{0, 0, 0, 4, 1, 0, 9, 0}, // truncated topic
		{0, 0, 0, 3, 2, 0, 2},    // truncated pattern list
	}
	for i, in := range inputs {
		if _, err := readFrame(bufio.NewReader(bytes.NewReader(in))); err == nil {
			t.Errorf("case %d: garbage frame accepted", i)
		}
	}
}

func TestBrokerPubSub(t *testing.T) {
	srv := newBroker(t)
	pub := newClient(t, srv)
	cons := newClient(t, srv)
	sub, err := cons.Subscribe("writes")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond) // let the SUBSCRIBE frame land
	if err := pub.Publish("writes", []byte("after-image")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sub)
	if m.Topic != "writes" || string(m.Payload) != "after-image" {
		t.Fatalf("got %+v", m)
	}
}

func TestBrokerPatternRouting(t *testing.T) {
	srv := newBroker(t)
	pub := newClient(t, srv)
	cons := newClient(t, srv)
	sub, _ := cons.Subscribe("notify.t1.*")
	time.Sleep(30 * time.Millisecond)
	_ = pub.Publish("notify.t2.q", []byte("no"))
	_ = pub.Publish("notify.t1.q", []byte("yes"))
	if m := recvOne(t, sub); m.Topic != "notify.t1.q" {
		t.Fatalf("pattern routing broken: %+v", m)
	}
}

func TestBrokerFanOutAcrossClients(t *testing.T) {
	srv := newBroker(t)
	pub := newClient(t, srv)
	var subs []eventlayer.Subscription
	for i := 0; i < 3; i++ {
		c := newClient(t, srv)
		s, _ := c.Subscribe("t")
		subs = append(subs, s)
	}
	time.Sleep(30 * time.Millisecond)
	_ = pub.Publish("t", []byte("x"))
	for i, s := range subs {
		if m := recvOne(t, s); string(m.Payload) != "x" {
			t.Fatalf("client %d got %+v", i, m)
		}
	}
}

func TestBrokerLocalDemux(t *testing.T) {
	// Two subscriptions on one client with different patterns: the broker
	// sends each message once; the client demuxes locally.
	srv := newBroker(t)
	c := newClient(t, srv)
	subA, _ := c.Subscribe("a")
	subB, _ := c.Subscribe("b")
	time.Sleep(30 * time.Millisecond)
	pub := newClient(t, srv)
	_ = pub.Publish("a", []byte("for-a"))
	_ = pub.Publish("b", []byte("for-b"))
	if m := recvOne(t, subA); string(m.Payload) != "for-a" {
		t.Fatalf("subA got %+v", m)
	}
	if m := recvOne(t, subB); string(m.Payload) != "for-b" {
		t.Fatalf("subB got %+v", m)
	}
}

func TestBrokerUnsubscribeStopsDelivery(t *testing.T) {
	srv := newBroker(t)
	c := newClient(t, srv)
	pub := newClient(t, srv)
	sub, _ := c.Subscribe("t")
	keep, _ := c.Subscribe("keep")
	time.Sleep(30 * time.Millisecond)
	_ = sub.Close()
	time.Sleep(30 * time.Millisecond)
	_ = pub.Publish("t", []byte("gone"))
	_ = pub.Publish("keep", []byte("here"))
	if m := recvOne(t, keep); string(m.Payload) != "here" {
		t.Fatalf("keep got %+v", m)
	}
	select {
	case m, ok := <-sub.C():
		if ok {
			t.Fatalf("closed subscription received %+v", m)
		}
	default:
	}
}

func TestBrokerOverlappingPatternsRefcount(t *testing.T) {
	srv := newBroker(t)
	c := newClient(t, srv)
	pub := newClient(t, srv)
	s1, _ := c.Subscribe("t")
	s2, _ := c.Subscribe("t")
	time.Sleep(30 * time.Millisecond)
	_ = s1.Close() // s2 still holds the pattern
	time.Sleep(30 * time.Millisecond)
	_ = pub.Publish("t", []byte("x"))
	if m := recvOne(t, s2); string(m.Payload) != "x" {
		t.Fatalf("s2 got %+v", m)
	}
}

func TestBrokerClientReconnects(t *testing.T) {
	srv := newBroker(t)
	c := newClient(t, srv)
	pub := newClient(t, srv)
	sub, _ := c.Subscribe("t")
	time.Sleep(30 * time.Millisecond)

	// Sever every session server-side; clients must reconnect and
	// re-subscribe on their own.
	srv.mu.Lock()
	sessions := make([]*session, 0, len(srv.session))
	for s := range srv.session {
		sessions = append(sessions, s)
	}
	srv.mu.Unlock()
	for _, s := range sessions {
		s.close()
	}

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := pub.Publish("t", []byte("back")); err == nil {
			select {
			case m := <-sub.C():
				if string(m.Payload) != "back" {
					t.Fatalf("got %+v", m)
				}
				return
			case <-time.After(100 * time.Millisecond):
			}
		} else {
			time.Sleep(50 * time.Millisecond)
		}
	}
	t.Fatal("client did not recover after broker-side disconnect")
}

// TestClientPublishRetriesAcrossReconnect severs the publisher's broker
// connection and issues a single Publish: the retry loop must ride out the
// outage and deliver once the reconnect loop restores the link.
func TestClientPublishRetriesAcrossReconnect(t *testing.T) {
	srv := newBroker(t)
	cons := newClient(t, srv)
	sub, _ := cons.Subscribe("t")
	pub, err := Dial(srv.Addr(), ClientOptions{
		ReconnectInterval: 20 * time.Millisecond,
		PublishRetries:    10,
		PublishBackoff:    15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	time.Sleep(30 * time.Millisecond)

	pub.mu.Lock()
	pub.dropConnLocked()
	pub.mu.Unlock()

	if err := pub.Publish("t", []byte("survived")); err != nil {
		t.Fatalf("publish did not survive reconnect: %v", err)
	}
	if m := recvOne(t, sub); string(m.Payload) != "survived" {
		t.Fatalf("got %+v", m)
	}
}

// TestClientPublishBoundedFailure kills the broker outright: Publish must
// give up after its bounded retries rather than blocking forever.
func TestClientPublishBoundedFailure(t *testing.T) {
	srv := newBroker(t)
	pub, err := Dial(srv.Addr(), ClientOptions{
		ReconnectInterval: 10 * time.Millisecond,
		PublishRetries:    2,
		PublishBackoff:    5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = pub.Close() })
	_ = srv.Close()
	time.Sleep(30 * time.Millisecond) // let the client notice the dead link

	start := time.Now()
	if err := pub.Publish("t", []byte("x")); err == nil {
		t.Fatal("publish to a dead broker succeeded")
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("bounded retry took %v", elapsed)
	}
}

func TestBrokerStats(t *testing.T) {
	srv := newBroker(t)
	c := newClient(t, srv)
	pub := newClient(t, srv)
	_, _ = c.Subscribe("t")
	time.Sleep(30 * time.Millisecond)
	_ = pub.Publish("t", []byte("x"))
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		p, d, _ := srv.Stats()
		if p >= 1 && d >= 1 {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("stats never advanced")
}

func TestClientClosedOperationsFail(t *testing.T) {
	srv := newBroker(t)
	c := newClient(t, srv)
	_ = c.Close()
	if err := c.Publish("t", nil); err != eventlayer.ErrBusClosed {
		t.Fatalf("publish after close: %v", err)
	}
	if _, err := c.Subscribe("t"); err != eventlayer.ErrBusClosed {
		t.Fatalf("subscribe after close: %v", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", ClientOptions{DialTimeout: 100 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

// Per-session slow-consumer accounting: drops are charged to the stuck
// session (not just the broker-wide total), the first drop is logged,
// and the counts surface through the metrics registry.
func TestSlowConsumerPerSessionDrops(t *testing.T) {
	var mu sync.Mutex
	var logged []string
	srv := &Server{
		opts: ServerOptions{Logf: func(f string, a ...any) {
			mu.Lock()
			logged = append(logged, fmt.Sprintf(f, a...))
			mu.Unlock()
		}},
		session: map[*session]struct{}{},
	}
	slow := &session{srv: srv, id: 1, remote: "10.0.0.1:555", out: make(chan frame, 1), done: make(chan struct{})}
	fast := &session{srv: srv, id: 2, remote: "10.0.0.2:556", out: make(chan frame, 16), done: make(chan struct{})}
	srv.session[slow] = struct{}{}
	srv.session[fast] = struct{}{}

	for i := 0; i < 5; i++ {
		slow.enqueue(frame{op: opMessage, topic: "t"})
		fast.enqueue(frame{op: opMessage, topic: "t"})
	}
	// slow's queue holds one frame; each later enqueue drops the oldest.
	if got := slow.dropped.Load(); got != 4 {
		t.Fatalf("slow session dropped = %d, want 4", got)
	}
	if got := fast.dropped.Load(); got != 0 {
		t.Fatalf("fast session dropped = %d, want 0", got)
	}
	if _, _, dropped := srv.Stats(); dropped != 4 {
		t.Fatalf("broker dropped = %d, want 4", dropped)
	}
	mu.Lock()
	n := len(logged)
	first := ""
	if n > 0 {
		first = logged[0]
	}
	mu.Unlock()
	if n != 1 {
		t.Fatalf("logged %d times, want exactly one first-drop line: %v", n, logged)
	}
	if !strings.Contains(first, "10.0.0.1:555") {
		t.Fatalf("first-drop log does not name the session: %q", first)
	}

	r := metrics.NewRegistry()
	srv.RegisterMetrics(r)
	snap := r.Snapshot()
	// Series are keyed by the stable numeric session ID, not the remote
	// address (which churns on every reconnect and carries '.'/':').
	if snap.Gauges["eventlayer.session.1.dropped"] != 4 {
		t.Fatalf("registry gauges = %v", snap.Gauges)
	}
	if _, ok := snap.Gauges["eventlayer.session.2.dropped"]; ok {
		t.Fatal("zero-drop session should not emit a gauge")
	}
	if snap.Gauges["eventlayer.sessions"] != 2 {
		t.Fatalf("sessions gauge = %v", snap.Gauges["eventlayer.sessions"])
	}
}

// TestBrokerRetainsControlTopics: the broker keeps the last payload of a
// ".control" topic and replays it to sessions that subscribe afterwards —
// the late-joiner path a multi-process grid relies on for partition-map
// convergence.
func TestBrokerRetainsControlTopics(t *testing.T) {
	srv := newBroker(t)
	pub := newClient(t, srv)
	if err := pub.Publish("grid.control", []byte("old")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("grid.control", []byte("current")); err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish("grid.writes", []byte("w1")); err != nil {
		t.Fatal(err)
	}
	// Give the broker time to process the publishes before the late join.
	time.Sleep(50 * time.Millisecond)
	late := newClient(t, srv)
	sub, err := late.Subscribe("grid.control")
	if err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sub)
	if m.Topic != "grid.control" || string(m.Payload) != "current" {
		t.Fatalf("late subscriber got %s %q, want retained control payload", m.Topic, m.Payload)
	}
	// Data topics are not retained: a late subscription to them stays empty.
	dataSub, err := late.Subscribe("grid.writes")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-dataSub.C():
		t.Fatalf("data topic replayed %q — only .control topics are retained", m.Payload)
	case <-time.After(100 * time.Millisecond):
	}
}

// TestEveryLocalSubscriberGetsTheRetainedPayload: the broker replays a
// retained payload once per connection, when the pattern is first
// subscribed; a second subscription on the same client, made before or
// after that replay arrived, must receive it as well — an application server
// and a grid node sharing one connection both learn the partition map.
func TestEveryLocalSubscriberGetsTheRetainedPayload(t *testing.T) {
	srv := newBroker(t)
	c := newClient(t, srv)
	if err := c.Publish("x.control", []byte("map")); err != nil {
		t.Fatal(err)
	}
	time.Sleep(50 * time.Millisecond) // let the broker retain it
	subscribe := func() eventlayer.Subscription {
		s, err := c.Subscribe("x.control")
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	receive := func(i int, s eventlayer.Subscription) {
		select {
		case m := <-s.C():
			if string(m.Payload) != "map" {
				t.Fatalf("subscription %d got %q, want the retained payload", i, m.Payload)
			}
		case <-time.After(500 * time.Millisecond):
			t.Fatalf("subscription %d never received the retained payload", i)
		}
	}
	first, second := subscribe(), subscribe()
	receive(1, first)
	receive(2, second)
	receive(3, subscribe()) // after the broker's replay arrived
}
