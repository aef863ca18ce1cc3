// Chat: the classic real-time database scenario the paper's introduction
// motivates — users see new messages the moment they are written, without
// polling.
//
// Each chat room view is a sorted real-time query: the latest messages of
// one room, newest first, limited to a window. Two subscribers (Alice's and
// Bob's clients) share the same query; InvaliDB matches it once and the
// application server fans the notifications out.
//
//	go run ./examples/chat
package main

import (
	"fmt"
	"log"
	"time"

	"invalidb"
)

const room = "databases"

func main() {
	dep, err := invalidb.Open(invalidb.ClusterOptions{QueryPartitions: 2, WritePartitions: 2}, invalidb.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	srv := dep.Server

	view := invalidb.Spec{
		Collection: "messages",
		Filter:     map[string]any{"room": room},
		Sort:       []invalidb.SortKey{{Path: "at", Desc: true}},
		Limit:      4,
	}
	alice, err := srv.Subscribe(view)
	if err != nil {
		log.Fatal(err)
	}
	bob, err := srv.Subscribe(view)
	if err != nil {
		log.Fatal(err)
	}
	defer alice.Close()
	defer bob.Close()

	watch := func(name string, sub *invalidb.Subscription, done chan<- struct{}) {
		seen := 0
		for ev := range sub.C() {
			switch ev.Type {
			case invalidb.EventInitial:
				fmt.Printf("[%s] joined #%s (%d messages)\n", name, room, len(ev.Docs))
			case invalidb.EventAdd:
				fmt.Printf("[%s] %v: %v\n", name, ev.Doc["from"], ev.Doc["text"])
				seen++
				if seen == 5 {
					done <- struct{}{}
					return
				}
			case invalidb.EventRemove:
				// An old message scrolled out of the window.
			case invalidb.EventError:
				log.Fatalf("[%s] subscription error: %v", name, ev.Err)
			}
		}
	}
	done := make(chan struct{}, 2)
	go watch("alice", alice, done)
	go watch("bob  ", bob, done)

	say := func(i int, from, text string) {
		if err := srv.Insert("messages", invalidb.Document{
			"_id": fmt.Sprintf("m%03d", i), "room": room,
			"from": from, "text": text, "at": i,
		}); err != nil {
			log.Fatal(err)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// A message in another room must not reach the #databases view.
	_ = srv.Insert("messages", invalidb.Document{
		"_id": "off0", "room": "offtopic", "from": "carol", "text": "lunch?", "at": 0,
	})
	say(1, "alice", "did you read the InvaliDB paper?")
	say(2, "bob", "the two-dimensional partitioning one?")
	say(3, "alice", "yes - queries one way, writes the other")
	say(4, "bob", "so no single node sees the whole write stream")
	say(5, "alice", "exactly, that is why it scales both ways")

	for i := 0; i < 2; i++ {
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			log.Fatal("timed out waiting for chat events")
		}
	}
	fmt.Println("\nfinal window (newest first):")
	for _, d := range alice.Result() {
		fmt.Printf("  %v: %v\n", d["from"], d["text"])
	}
}
