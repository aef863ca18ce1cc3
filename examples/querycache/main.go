// Querycache: the Quaestor use case (paper §4/§7; VLDB 2017) — consistent
// query caching with InvaliDB-driven invalidation.
//
// Pull-based query results are cached at the application server. InvaliDB
// watches every cached query as a real-time query; the moment a write
// changes a result, the cache entry is invalidated, so reads are fast AND
// never stale beyond the notification latency.
//
//	go run ./examples/querycache
package main

import (
	"fmt"
	"log"
	"time"

	"invalidb"
	"invalidb/internal/quaestor"
)

func main() {
	dep, err := invalidb.Open(invalidb.ClusterOptions{}, invalidb.ServerOptions{})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	srv := dep.Server

	for i := 0; i < 5; i++ {
		if err := srv.Insert("products", invalidb.Document{
			"_id": fmt.Sprintf("p%d", i), "category": "db", "stock": 10 * (i + 1),
		}); err != nil {
			log.Fatal(err)
		}
	}

	cache := quaestor.New(srv, quaestor.Options{})
	defer cache.Close()

	inStock := invalidb.Spec{
		Collection: "products",
		Filter: map[string]any{
			"category": "db",
			"stock":    map[string]any{"$gt": 0},
		},
	}

	read := func(label string) {
		start := time.Now()
		result, cached, err := cache.Query(inStock)
		if err != nil {
			log.Fatal(err)
		}
		src := "database"
		if cached {
			src = "cache"
		}
		fmt.Printf("%-28s %d products from %-8s (%v)\n", label, len(result), src, time.Since(start).Round(time.Microsecond))
	}

	read("cold read")
	read("warm read")
	read("warm read")

	// Sell out one product: the result changes, InvaliDB invalidates.
	if err := srv.Update("products", "p0", map[string]any{"$set": map[string]any{"stock": 0}}); err != nil {
		log.Fatal(err)
	}
	waitInvalidation(cache)
	read("after relevant write")
	read("warm again")

	// An irrelevant write (another category) must NOT invalidate.
	if err := srv.Insert("products", invalidb.Document{"_id": "x", "category": "gpu", "stock": 1}); err != nil {
		log.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	read("after irrelevant write")

	hits, misses, invalidations := cache.Stats()
	fmt.Printf("\nstats: hits=%d misses=%d invalidations=%d\n", hits, misses, invalidations)
	if invalidations == 0 {
		log.Fatal("expected at least one invalidation")
	}
}

func waitInvalidation(cache *quaestor.Cache) {
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if _, _, inv := cache.Stats(); inv > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	log.Fatal("invalidation never arrived")
}
