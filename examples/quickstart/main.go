// Quickstart: a complete single-process InvaliDB deployment in ~50 lines.
//
// It opens the stack (document database, event layer, matching cluster,
// application server), subscribes to a real-time filter query, and prints
// the push-based change events that writes produce.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"invalidb"
)

func main() {
	dep, err := invalidb.Open(invalidb.ClusterOptions{QueryPartitions: 2, WritePartitions: 2}, invalidb.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	srv := dep.Server

	// Seed the collection through the application server: every write runs
	// against the database and its after-image streams to the cluster.
	if err := srv.Insert("articles", invalidb.Document{
		"_id": "baas", "title": "BaaS For Dummies", "year": 2017,
	}); err != nil {
		log.Fatal(err)
	}

	// A push-based real-time query: the same language as pull-based queries.
	sub, err := srv.Subscribe(invalidb.Spec{
		Collection: "articles",
		Filter:     map[string]any{"year": map[string]any{"$gte": 2017}},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()

	// Writes are paced a little apart: after-images travel through parallel
	// write-ingestion nodes, and InvaliDB's staleness avoidance collapses
	// same-key writes that overtake each other into the final state — the
	// eventual consistency the paper defines. Spacing them out makes every
	// intermediate event observable.
	go func() {
		pace := func() { time.Sleep(50 * time.Millisecond) }
		pace()
		_ = srv.Insert("articles", invalidb.Document{"_id": "dbfun", "title": "DB Fun", "year": 2018})
		pace()
		_ = srv.Update("articles", "dbfun", map[string]any{"$set": map[string]any{"title": "DB Fun (2nd ed.)"}})
		pace()
		_ = srv.Update("articles", "baas", map[string]any{"$set": map[string]any{"year": 2015}}) // leaves the result
		pace()
		_ = srv.Delete("articles", "dbfun")
	}()

	deadline := time.After(3 * time.Second)
	for {
		select {
		case ev := <-sub.C():
			switch ev.Type {
			case invalidb.EventInitial:
				fmt.Printf("initial result: %d article(s)\n", len(ev.Docs))
				for _, d := range ev.Docs {
					fmt.Printf("  - %v (%v)\n", d["title"], d["year"])
				}
			case invalidb.EventError:
				log.Fatal(ev.Err)
			default:
				fmt.Printf("%-11s key=%-6s doc=%v\n", ev.Type, ev.Key, ev.Doc)
			}
			if ev.Type == invalidb.EventRemove && ev.Key == "dbfun" {
				fmt.Println("done: current result =", sub.Result())
				return
			}
		case <-deadline:
			log.Fatal("timed out waiting for events")
		}
	}
}
