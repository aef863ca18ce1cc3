// Aggregates: the paper's §8.1 future-work direction — aggregation queries
// as an additional processing stage — running on this repository's pluggable
// stage pipeline (core.Options.ExtraStages).
//
// A streaming count/sum/avg/min/max over a real-time query's result is
// maintained incrementally from filtering-stage deltas: no write ever
// rescans the database, and the matching grid stays untouched.
//
//	go run ./examples/aggregates
package main

import (
	"fmt"
	"log"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
	"invalidb/internal/query"

	"invalidb"
)

func main() {
	bus := eventlayer.NewMemBus(eventlayer.MemBusOptions{})
	cluster, err := core.NewCluster(bus, core.Options{
		QueryPartitions: 2,
		WritePartitions: 2,
		// The extension stage: aggregate the "price" field of every
		// registered query's result, on 2 stage nodes.
		ExtraStages: []core.Stage{core.NewAggregationStage("price", 2)},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := cluster.Start(); err != nil {
		log.Fatal(err)
	}
	defer cluster.Stop()
	defer bus.Close()

	db := invalidb.OpenDB(invalidb.DBOptions{})
	srv, err := appserver.New(db, bus, appserver.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()

	// Watch the aggregate notifications directly on the event layer.
	spec := query.Spec{Collection: "orders", Filter: map[string]any{"open": true}}
	q, _ := query.Compile(spec)
	qid := core.QueryIDString(core.TenantQueryHash(srv.Tenant(), q))
	notif, err := bus.Subscribe(cluster.Topics().Notify(srv.Tenant()))
	if err != nil {
		log.Fatal(err)
	}
	defer notif.Close()

	if _, err := srv.Subscribe(spec); err != nil {
		log.Fatal(err)
	}

	go func() {
		orders := []struct {
			id    string
			price int
		}{{"o1", 40}, {"o2", 60}, {"o3", 200}}
		for _, o := range orders {
			time.Sleep(40 * time.Millisecond)
			_ = srv.Insert("orders", invalidb.Document{"_id": o.id, "open": true, "price": o.price})
		}
		time.Sleep(40 * time.Millisecond)
		_ = srv.Update("orders", "o3", map[string]any{"$set": map[string]any{"open": false}}) // leaves the result
	}()

	deadline := time.After(5 * time.Second)
	seen := 0
	for {
		select {
		case msg := <-notif.C():
			env, err := core.DecodeWire(msg.Payload)
			if err != nil || env.Kind != core.KindNotification {
				continue
			}
			n := env.Notification
			if n.Key != core.AggregateKey || n.QueryID != qid {
				continue
			}
			fmt.Printf("open-order stats: count=%v sum=%v avg=%v min=%v max=%v\n",
				n.Doc["count"], n.Doc["sum"], n.Doc["avg"], n.Doc["min"], n.Doc["max"])
			seen++
			if seen == 5 { // bootstrap + 3 inserts + 1 departure
				return
			}
		case <-deadline:
			log.Fatal("timed out waiting for aggregate notifications")
		}
	}
}
