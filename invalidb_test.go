package invalidb

import (
	"testing"
	"time"
)

func TestOpenQuickstart(t *testing.T) {
	dep, err := Open(ClusterOptions{QueryPartitions: 2, WritePartitions: 2}, ServerOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()

	if err := dep.Server.Insert("articles", Document{"_id": "1", "title": "A", "year": 2020}); err != nil {
		t.Fatal(err)
	}
	sub, err := dep.Server.Subscribe(Spec{
		Collection: "articles",
		Filter:     map[string]any{"year": map[string]any{"$gte": 2018}},
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, sub.C())
	if ev.Type != EventInitial || len(ev.Docs) != 1 {
		t.Fatalf("initial event = %+v", ev)
	}
	if err := dep.Server.Insert("articles", Document{"_id": "2", "title": "B", "year": 2019}); err != nil {
		t.Fatal(err)
	}
	ev = nextEvent(t, sub.C())
	if ev.Type != EventAdd || ev.Key != "2" {
		t.Fatalf("add event = %+v", ev)
	}
	if got, err := dep.Server.Query(Spec{Collection: "articles"}); err != nil || len(got) != 2 {
		t.Fatalf("pull-based query = %v, %v", got, err)
	}
}

func TestOpenSortedQuery(t *testing.T) {
	dep, err := Open(ClusterOptions{}, ServerOptions{Slack: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer dep.Close()
	for i, name := range []string{"carol", "alice", "bob"} {
		if err := dep.Server.Insert("players", Document{"_id": name, "score": (i + 1) * 10}); err != nil {
			t.Fatal(err)
		}
	}
	sub, err := dep.Server.Subscribe(Spec{
		Collection: "players",
		Sort:       []SortKey{{Path: "score", Desc: true}},
		Limit:      2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ev := nextEvent(t, sub.C())
	if len(ev.Docs) != 2 {
		t.Fatalf("initial = %v", ev.Docs)
	}
	if id, _ := ev.Docs[0].ID(); id != "bob" {
		t.Fatalf("leader = %s, want bob", id)
	}
}

func TestCompileQuery(t *testing.T) {
	q, err := CompileQuery(Spec{Collection: "c", Filter: map[string]any{"x": 1}})
	if err != nil {
		t.Fatal(err)
	}
	if !q.Match(Document{"x": int64(1)}) {
		t.Fatal("compiled query does not match")
	}
	if _, err := CompileQuery(Spec{}); err == nil {
		t.Fatal("empty spec accepted")
	}
}

func TestBrokerHelpers(t *testing.T) {
	srv, err := ServeBroker("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	bus, err := DialBroker(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer bus.Close()
	sub, err := bus.Subscribe("t")
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	if err := bus.Publish("t", []byte("x")); err != nil {
		t.Fatal(err)
	}
	select {
	case m := <-sub.C():
		if string(m.Payload) != "x" {
			t.Fatalf("payload = %q", m.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("broker round trip timed out")
	}
}

func nextEvent(t *testing.T, c <-chan Event) Event {
	t.Helper()
	select {
	case ev, ok := <-c:
		if !ok {
			t.Fatal("event channel closed")
		}
		return ev
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for event")
		return Event{}
	}
}
