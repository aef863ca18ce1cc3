package invalidb

import (
	"reflect"
	"testing"
	"time"
)

// numberDoor is one way documents and subscriptions enter the system.
type numberDoor struct {
	insert func(Document) error
	update func(key string, update map[string]any) error
	query  func(Spec) ([]Document, error)
	// subscribe returns next, which waits for the following event of the
	// subscription; ok is false when none arrived in time.
	subscribe func(Spec) (next func(time.Duration) (ev numberEvent, ok bool), err error)
}

// numberEvent is a subscription event as either door delivers it.
type numberEvent struct {
	typ, key string
	doc      Document
	docs     []Document // the initial result
}

// TestPushEqualsPullForNumberTypes: the matching grid evaluates the document
// storage holds — a float64 that happens to be integral stays a float64 on
// its way to the cells — so for $type predicates on numbers the initial
// result, the pushed events and the pull query agree document for document,
// whichever door the documents came in by.
func TestPushEqualsPullForNumberTypes(t *testing.T) {
	for _, via := range []string{"server", "gateway"} {
		for _, typ := range []string{"int", "double", "number"} {
			t.Run(via+"/"+typ, func(t *testing.T) {
				dep, err := Open(Config{QueryPartitions: 2, WritePartitions: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer dep.Close()
				door := serverDoor(dep.Server)
				if via == "gateway" {
					gw, err := ServeGateway(dep.Server, "127.0.0.1:0")
					if err != nil {
						t.Fatal(err)
					}
					defer gw.Close()
					client, err := DialGateway(gw.Addr())
					if err != nil {
						t.Fatal(err)
					}
					defer client.Close()
					door = gatewayDoor(client)
				}
				checkPushEqualsPull(t, door, Spec{
					Collection: "nums",
					Filter:     map[string]any{"x": map[string]any{"$type": typ}},
				})
			})
		}
	}
}

func checkPushEqualsPull(t *testing.T, door numberDoor, spec Spec) {
	for id, x := range map[string]any{"f3": float64(3), "i3": int64(3), "f35": 3.5, "s": "3"} {
		if err := door.insert(Document{"_id": id, "x": x, "note": "new"}); err != nil {
			t.Fatal(err)
		}
	}
	pull := func() map[string]Document {
		docs, err := door.query(spec)
		if err != nil {
			t.Fatal(err)
		}
		return byID(t, docs)
	}
	next, err := door.subscribe(spec)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := next(5 * time.Second)
	if !ok || first.typ != "initial" {
		t.Fatalf("first event = %q (ok %v), want initial", first.typ, ok)
	}
	pushed := byID(t, first.docs)
	if want := pull(); !reflect.DeepEqual(pushed, want) {
		t.Fatalf("initial result differs from the pull query:\npush: %v\npull: %v", pushed, want)
	}

	// One more insert per number type, then updates of a field the query
	// does not mention: members stay members, non-members stay out.
	for id, x := range map[string]any{"f7": float64(7), "i7": int64(7), "f75": 7.5} {
		if err := door.insert(Document{"_id": id, "x": x, "note": "new"}); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []string{"f3", "i3", "f35", "s", "f7"} {
		if err := door.update(id, map[string]any{"$set": map[string]any{"note": "updated"}}); err != nil {
			t.Fatal(err)
		}
	}
	want := pull()
	// Apply pushed events until the maintained result equals the pull query,
	// then keep listening: an event that arrives afterwards is spurious.
	deadline := time.Now().Add(5 * time.Second)
	for settle := false; ; {
		wait := time.Until(deadline)
		if settle = reflect.DeepEqual(pushed, want); settle {
			wait = 200 * time.Millisecond
		}
		ev, ok := next(wait)
		typ, key, doc := ev.typ, ev.key, ev.doc
		if !ok {
			if settle {
				return
			}
			t.Fatalf("pushed result never reached the pull query:\npush: %v\npull: %v", pushed, want)
		}
		if _, member := want[key]; !member {
			t.Fatalf("pushed %s for %s, which the pull query does not return", typ, key)
		}
		switch typ {
		case "add", "change":
			// The pushed document is the stored one, value types included:
			// float64(3) is not int64(3).
			if !reflect.DeepEqual(doc["x"], want[key]["x"]) {
				t.Fatalf("%s %s pushed x = %#v, storage holds %#v", typ, key, doc["x"], want[key]["x"])
			}
			pushed[key] = doc
		case "remove":
			delete(pushed, key)
		default:
			t.Fatalf("unexpected %s event for %s", typ, key)
		}
	}
}

func byID(t *testing.T, docs []Document) map[string]Document {
	t.Helper()
	out := make(map[string]Document, len(docs))
	for _, d := range docs {
		id, ok := d.ID()
		if !ok {
			t.Fatalf("document without _id: %v", d)
		}
		out[id] = d
	}
	return out
}

func serverDoor(srv *Server) numberDoor {
	return numberDoor{
		insert: func(d Document) error { return srv.Insert("nums", d) },
		update: func(key string, u map[string]any) error { return srv.Update("nums", key, u) },
		query:  srv.Query,
		subscribe: func(spec Spec) (func(time.Duration) (numberEvent, bool), error) {
			sub, err := srv.Subscribe(spec)
			if err != nil {
				return nil, err
			}
			return func(wait time.Duration) (numberEvent, bool) {
				select {
				case ev, ok := <-sub.C():
					return numberEvent{ev.Type.String(), ev.Key, ev.Doc, ev.Docs}, ok
				case <-time.After(wait):
					return numberEvent{}, false
				}
			}, nil
		},
	}
}

func gatewayDoor(c *GatewayClient) numberDoor {
	return numberDoor{
		insert: func(d Document) error { return c.Insert("nums", d) },
		update: func(key string, u map[string]any) error { return c.Update("nums", key, u) },
		query:  c.Query,
		subscribe: func(spec Spec) (func(time.Duration) (numberEvent, bool), error) {
			sub, err := c.Subscribe(spec)
			if err != nil {
				return nil, err
			}
			return func(wait time.Duration) (numberEvent, bool) {
				select {
				case ev, ok := <-sub.C():
					if ok && ev.Op != "event" { // resync or error frame: not an event type
						return numberEvent{typ: ev.Op + " frame", key: ev.Key}, true
					}
					return numberEvent{ev.Type, ev.Key, ev.Doc, ev.Docs}, ok
				case <-time.After(wait):
					return numberEvent{}, false
				}
			}, nil
		},
	}
}
