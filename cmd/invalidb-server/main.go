// Command invalidb-server runs an InvaliDB matching cluster as its own
// process, connected to a standalone event-layer broker (see eventlayerd).
// This is the paper's deployment shape: the real-time component is isolated
// from application servers and reachable only through the event layer, so
// taking it down never affects the OLTP path.
//
// Every process runs one -qp x -wp matching grid; a named one (-node)
// routes by the partition map invalidb-coordinator publishes.
//
// Usage:
//
//	eventlayerd -addr 127.0.0.1:7587 &
//	invalidb-server -broker 127.0.0.1:7587 -qp 4 -wp 4
//	invalidb-server -broker 127.0.0.1:7587 -node a -qp 2 -wp 4
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer/tcp"
	"invalidb/internal/obs"
)

func main() {
	var (
		broker   = flag.String("broker", "127.0.0.1:7587", "event-layer broker address")
		qp       = flag.Int("qp", 1, "query partitions: this process's grid rows")
		wp       = flag.Int("wp", 1, "write partitions: this process's grid columns (a coordinated grid's column capacity)")
		node     = flag.String("node", "", "node id; named = coordinated by invalidb-coordinator (empty = static identity map)")
		capacity = flag.Int("capacity", 0, "per-node match-ops/s budget (0 = unthrottled)")
		ns       = flag.String("namespace", "invalidb", "event-layer topic namespace")
		obsAddr  = flag.String("obs-addr", "", "observability HTTP address for /metrics, /healthz, /debug/pprof (empty disables; unauthenticated — \":port\" binds loopback, use an explicit host like 0.0.0.0:9090 to expose)")
		stats    = flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")
	)
	flag.Parse()

	bus, err := tcp.Dial(*broker, tcp.ClientOptions{})
	if err != nil {
		fatal(err)
	}
	cluster, err := core.NewCluster(bus, core.Options{
		Namespace:       *ns,
		QueryPartitions: *qp,
		WritePartitions: *wp,
		NodeID:          *node,
		NodeCapacity:    *capacity,
	})
	if err != nil {
		fatal(err)
	}
	if err := cluster.Start(); err != nil {
		fatal(err)
	}
	fmt.Printf("invalidb-server: %dx%d matching grid (node %q) on broker %s (namespace %s)\n",
		*qp, *wp, *node, *broker, *ns)

	if *obsAddr != "" {
		o, err := obs.Serve(*obsAddr, obs.Options{
			Registry: cluster.Metrics(),
			// Healthy while no topology task is dead (the supervisor
			// restarts panicking tasks; a dead task exhausted its budget).
			Healthy: func() bool {
				for _, s := range cluster.Stats() {
					if s.Dead {
						return false
					}
				}
				return true
			},
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		defer o.Close()
		fmt.Printf("invalidb-server: observability on http://%s\n", o.Addr())
	}

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
			var executed, emitted uint64
			for _, s := range cluster.Stats() {
				if s.Component == "match" {
					executed += s.Executed
					emitted += s.Emitted
				}
			}
			fmt.Printf("invalidb-server: match executed=%d emitted=%d\n", executed, emitted)
		case <-stop:
			cluster.Stop()
			_ = bus.Close()
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "invalidb-server:", err)
	os.Exit(1)
}
