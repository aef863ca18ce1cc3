// Leaderboard: a sorted real-time query with limit and offset — the query
// class that motivates InvaliDB's sorting stage and its auxiliary data
// (paper §5.2, Figure 3).
//
// The view shows ranks 2-4 of a game leaderboard (OFFSET 1 LIMIT 3, score
// descending). Score updates reorder players (changeIndex), push players in
// and out of the visible window, and — when enough players drop out — force
// a query maintenance error that the application server resolves with a
// transparent renewal.
//
//	go run ./examples/leaderboard
package main

import (
	"fmt"
	"log"
	"strings"
	"time"

	"invalidb"
)

func main() {
	dep, err := invalidb.Open(invalidb.ClusterOptions{}, invalidb.ServerOptions{Slack: 2})
	if err != nil {
		log.Fatal(err)
	}
	defer dep.Close()
	srv := dep.Server

	players := []struct {
		name  string
		score int
	}{
		{"ada", 90}, {"bob", 80}, {"cyd", 70}, {"dee", 60}, {"eve", 50}, {"fox", 40}, {"gus", 30},
	}
	for _, p := range players {
		if err := srv.Insert("players", invalidb.Document{"_id": p.name, "score": p.score}); err != nil {
			log.Fatal(err)
		}
	}

	view := invalidb.Spec{
		Collection: "players",
		Sort:       []invalidb.SortKey{{Path: "score", Desc: true}},
		Offset:     1, // rank 1 is shown elsewhere
		Limit:      3,
	}
	sub, err := srv.Subscribe(view)
	if err != nil {
		log.Fatal(err)
	}
	defer sub.Close()
	<-sub.C() // initial
	show := func(label string) {
		var names []string
		for _, d := range sub.Result() {
			names = append(names, fmt.Sprintf("%v(%v)", d["_id"], d["score"]))
		}
		fmt.Printf("%-34s ranks 2-4: %s\n", label, strings.Join(names, " "))
	}
	show("initial")

	wait := func(cond func() bool) {
		deadline := time.Now().Add(3 * time.Second)
		for time.Now().Before(deadline) {
			if cond() {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		log.Fatal("leaderboard never converged")
	}
	resultIs := func(want ...string) func() bool {
		return func() bool {
			docs := sub.Result()
			if len(docs) != len(want) {
				return false
			}
			for i, d := range docs {
				if d["_id"] != want[i] {
					return false
				}
			}
			return true
		}
	}

	// cyd surges past bob: positions swap inside the window (changeIndex).
	if err := srv.Update("players", "cyd", map[string]any{"$inc": map[string]any{"score": 15}}); err != nil {
		log.Fatal(err)
	}
	wait(resultIs("cyd", "bob", "dee"))
	show("cyd +15 -> 85")

	// eve overtakes everyone: she enters at rank 1, shifting the window.
	if err := srv.Update("players", "eve", map[string]any{"$set": map[string]any{"score": 99}}); err != nil {
		log.Fatal(err)
	}
	wait(resultIs("ada", "cyd", "bob"))
	show("eve -> 99 (rank 1)")

	// Mass retirement: deleting several players exhausts the slack; the
	// sorting stage raises a maintenance error and the application server
	// renews the query transparently (§5.2).
	for _, name := range []string{"eve", "ada", "cyd", "bob"} {
		if err := srv.Delete("players", name); err != nil {
			log.Fatal(err)
		}
	}
	wait(resultIs("fox", "gus"))
	show("after retirements (renewed)")

	fmt.Println("events dropped by slow client:", sub.Dropped())
}
