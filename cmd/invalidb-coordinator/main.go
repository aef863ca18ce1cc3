// Command invalidb-coordinator runs the control plane of a multi-process
// InvaliDB matching grid (DESIGN.md §13): it assigns query-partition rows
// to invalidb-server processes and publishes the assignment as partition-map
// epochs on the retained control topic. Run exactly one per namespace.
//
// Usage:
//
//	eventlayerd -addr 127.0.0.1:7587 &
//	invalidb-server -broker 127.0.0.1:7587 -node a -qp 2 -wp 4 &
//	invalidb-server -broker 127.0.0.1:7587 -node b -qp 2 -wp 4 &
//	invalidb-coordinator -broker 127.0.0.1:7587 -qp 2 -wp 2
//
// Each server's -qp rows are slots the coordinator places global rows on;
// its -wp columns are the headroom a write-partition resize grows into.
//
// A live resize is requested with the one-shot -resize flag, which
// publishes a ResizeRequest to the running coordinator and exits:
//
//	invalidb-coordinator -broker 127.0.0.1:7587 -resize qp
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"invalidb/internal/coordinator"
	"invalidb/internal/core"
	"invalidb/internal/eventlayer/tcp"
)

func main() {
	var (
		broker = flag.String("broker", "127.0.0.1:7587", "event-layer broker address")
		ns     = flag.String("namespace", "invalidb", "event-layer topic namespace")
		qp     = flag.Int("qp", 1, "initial query partitions")
		wp     = flag.Int("wp", 1, "initial write partitions")
		resize = flag.String("resize", "", "one-shot: publish a resize request (qp|wp) to the running coordinator and exit")
		stats  = flag.Duration("stats", 10*time.Second, "status print interval (0 disables)")
	)
	flag.Parse()
	bus, err := tcp.Dial(*broker, tcp.ClientOptions{})
	if err != nil {
		fatal(err)
	}
	defer bus.Close()

	if *resize != "" {
		if *resize != core.ResizeAxisQP && *resize != core.ResizeAxisWP {
			fatal(fmt.Errorf("-resize must be qp or wp, got %q", *resize))
		}
		env := &core.Envelope{Kind: core.KindResize, Resize: &core.ResizeRequest{Axis: *resize}}
		data, err := env.Encode()
		if err != nil {
			fatal(err)
		}
		if err := bus.Publish(core.NewTopics(*ns).Coord(), data); err != nil {
			fatal(err)
		}
		// Give the client's write loop a moment to flush before closing.
		time.Sleep(100 * time.Millisecond)
		fmt.Printf("invalidb-coordinator: resize %s requested on namespace %s\n", *resize, *ns)
		return
	}

	coord, err := coordinator.New(bus, coordinator.Options{
		Namespace:       *ns,
		QueryPartitions: *qp,
		WritePartitions: *wp,
		Logf: func(format string, args ...any) {
			fmt.Printf(format+"\n", args...)
		},
	})
	if err != nil {
		fatal(err)
	}
	if err := coord.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("invalidb-coordinator: coordinating %dx%d grid on broker %s (namespace %s)\n",
		*qp, *wp, *broker, *ns)

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var ticker *time.Ticker
	if *stats > 0 {
		ticker = time.NewTicker(*stats)
		defer ticker.Stop()
	} else {
		ticker = time.NewTicker(time.Hour)
		ticker.Stop()
	}
	for {
		select {
		case <-ticker.C:
			m := coord.CurrentMap()
			if m == nil {
				fmt.Printf("invalidb-coordinator: awaiting capacity (nodes: %v)\n", coord.Nodes())
				continue
			}
			fmt.Printf("invalidb-coordinator: epoch %d %dx%d converged=%v nodes=%v\n",
				m.Epoch, m.QueryPartitions, m.WritePartitions, coord.Converged(), coord.Nodes())
		case <-stop:
			coord.Stop()
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "invalidb-coordinator:", err)
	os.Exit(1)
}
