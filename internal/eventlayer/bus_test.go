package eventlayer

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func recvOne(t *testing.T, sub Subscription) Message {
	t.Helper()
	select {
	case m, ok := <-sub.C():
		if !ok {
			t.Fatal("subscription channel closed unexpectedly")
		}
		return m
	case <-time.After(2 * time.Second):
		t.Fatal("timed out waiting for message")
		return Message{}
	}
}

func TestMemBusPublishSubscribe(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	sub, err := b.Subscribe("writes")
	if err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("writes", []byte("hello")); err != nil {
		t.Fatal(err)
	}
	m := recvOne(t, sub)
	if m.Topic != "writes" || string(m.Payload) != "hello" {
		t.Fatalf("got %+v", m)
	}
}

func TestMemBusTopicIsolation(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	sub, _ := b.Subscribe("a")
	_ = b.Publish("b", []byte("x"))
	_ = b.Publish("a", []byte("y"))
	m := recvOne(t, sub)
	if string(m.Payload) != "y" {
		t.Fatalf("received message from wrong topic: %+v", m)
	}
}

func TestMemBusPatternSubscribe(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	sub, _ := b.Subscribe("notify.tenant1.*")
	_ = b.Publish("notify.tenant2.q1", []byte("no"))
	_ = b.Publish("notify.tenant1.q7", []byte("yes"))
	m := recvOne(t, sub)
	if m.Topic != "notify.tenant1.q7" {
		t.Fatalf("pattern routing broken: %+v", m)
	}
}

func TestMemBusMultiplePatterns(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	sub, _ := b.Subscribe("a", "b")
	_ = b.Publish("b", []byte("1"))
	_ = b.Publish("a", []byte("2"))
	got := map[string]bool{}
	got[recvOne(t, sub).Topic] = true
	got[recvOne(t, sub).Topic] = true
	if !got["a"] || !got["b"] {
		t.Fatalf("multi-pattern subscribe missed topics: %v", got)
	}
}

func TestMemBusFanOut(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	var subs []Subscription
	for i := 0; i < 5; i++ {
		s, _ := b.Subscribe("t")
		subs = append(subs, s)
	}
	_ = b.Publish("t", []byte("x"))
	for i, s := range subs {
		if m := recvOne(t, s); string(m.Payload) != "x" {
			t.Fatalf("subscriber %d got %+v", i, m)
		}
	}
}

func TestMemBusNoPatterns(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	if _, err := b.Subscribe(); err == nil {
		t.Fatal("empty subscribe accepted")
	}
}

func TestMemBusOverflowDropsOldest(t *testing.T) {
	b := NewMemBus(MemBusOptions{BufferSize: 4})
	defer b.Close()
	sub, _ := b.Subscribe("t")
	for i := 0; i < 10; i++ {
		_ = b.Publish("t", []byte(fmt.Sprint(i)))
	}
	if sub.Dropped() != 6 {
		t.Fatalf("Dropped = %d, want 6", sub.Dropped())
	}
	// The survivors are the newest 4 messages.
	want := []string{"6", "7", "8", "9"}
	for _, w := range want {
		if got := string(recvOne(t, sub).Payload); got != w {
			t.Fatalf("survivor = %s, want %s", got, w)
		}
	}
}

func TestMemBusSubscriptionClose(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	sub, _ := b.Subscribe("t")
	_ = sub.Close()
	if err := b.Publish("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("closed subscription delivered a message")
	}
}

func TestMemBusCloseEndsEverything(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	sub, _ := b.Subscribe("t")
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	if _, ok := <-sub.C(); ok {
		t.Fatal("subscription outlived the bus")
	}
	if err := b.Publish("t", nil); err != ErrBusClosed {
		t.Fatalf("publish on closed bus: %v", err)
	}
	if _, err := b.Subscribe("t"); err != ErrBusClosed {
		t.Fatalf("subscribe on closed bus: %v", err)
	}
	if err := b.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
}

func TestMemBusLateSubscriberMissesEarlierMessages(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	_ = b.Publish("t", []byte("early"))
	sub, _ := b.Subscribe("t")
	_ = b.Publish("t", []byte("late"))
	if m := recvOne(t, sub); string(m.Payload) != "late" {
		t.Fatalf("late subscriber received %q", m.Payload)
	}
}

func TestMemBusConcurrentPublishers(t *testing.T) {
	b := NewMemBus(MemBusOptions{BufferSize: 100000})
	defer b.Close()
	sub, _ := b.Subscribe("t")
	const publishers = 8
	const perPublisher = 500
	var wg sync.WaitGroup
	for p := 0; p < publishers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perPublisher; i++ {
				if err := b.Publish("t", []byte("m")); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < publishers*perPublisher; i++ {
		recvOne(t, sub)
	}
	if sub.Dropped() != 0 {
		t.Fatalf("unexpected drops: %d", sub.Dropped())
	}
}

// TestMemBusPublishCloseRace hammers Publish against Close (and subscriber
// teardown) from many goroutines. Run under -race: the invariant is that a
// publish either succeeds before the close or returns ErrBusClosed — never
// a panic or a send on a closed channel.
func TestMemBusPublishCloseRace(t *testing.T) {
	for iter := 0; iter < 50; iter++ {
		b := NewMemBus(MemBusOptions{BufferSize: 16})
		subs := make([]Subscription, 4)
		for i := range subs {
			subs[i], _ = b.Subscribe("t")
		}
		var wg sync.WaitGroup
		for p := 0; p < 4; p++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					if err := b.Publish("t", []byte("m")); err != nil {
						if err != ErrBusClosed {
							t.Errorf("Publish = %v, want nil or ErrBusClosed", err)
						}
						return
					}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			subs[0].Close()
			b.Close()
		}()
		wg.Wait()
		if err := b.Publish("t", nil); err != ErrBusClosed {
			t.Fatalf("post-close Publish = %v, want ErrBusClosed", err)
		}
	}
}

func TestMatchPattern(t *testing.T) {
	cases := []struct {
		pattern, topic string
		want           bool
	}{
		{"a", "a", true},
		{"a", "b", false},
		{"a", "ab", false},
		{"a*", "ab", true},
		{"a*", "a", true},
		{"a.*", "a.b.c", true},
		{"*", "anything", true},
		{"a.*", "b.a", false},
	}
	for _, c := range cases {
		if got := MatchPattern(c.pattern, c.topic); got != c.want {
			t.Errorf("MatchPattern(%q, %q) = %v, want %v", c.pattern, c.topic, got, c.want)
		}
	}
}

// Retained control-plane topics: the last payload published on a ".control"
// topic is delivered to later subscribers at Subscribe time, so a process
// that joins after the coordinator published the current partition map still
// converges immediately. Data topics stay fire-and-forget.
func TestMemBusRetainsControlTopics(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	if err := b.Publish("invalidb.control", []byte("v1")); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("invalidb.control", []byte("v2")); err != nil {
		t.Fatal(err)
	}
	if err := b.Publish("invalidb.writes", []byte("w")); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("invalidb.control", "invalidb.writes")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C():
		if m.Topic != "invalidb.control" || string(m.Payload) != "v2" {
			t.Fatalf("retained delivery = %s %q, want last control payload", m.Topic, m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("retained control payload not delivered on subscribe")
	}
	select {
	case m := <-sub.C():
		t.Fatalf("unexpected second retained delivery: %s %q (data topics must not be retained)", m.Topic, m.Payload)
	case <-time.After(50 * time.Millisecond):
	}
}

func TestMemBusRetainedMatchesWildcard(t *testing.T) {
	b := NewMemBus(MemBusOptions{})
	defer b.Close()
	if err := b.Publish("ns.control", []byte("map")); err != nil {
		t.Fatal(err)
	}
	sub, err := b.Subscribe("ns.*")
	if err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C():
		if string(m.Payload) != "map" {
			t.Fatalf("retained payload = %q", m.Payload)
		}
	case <-time.After(time.Second):
		t.Fatal("retained payload not delivered to wildcard subscriber")
	}
}
