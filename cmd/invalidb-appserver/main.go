// Command invalidb-appserver runs an application server with its client
// gateway: the middle tier of the paper's architecture (Figure 1). It owns
// a document database (optionally journaled for durability), connects to
// the event-layer broker, and accepts end-user connections on the gateway
// port using the newline-delimited JSON protocol of internal/gateway.
//
// A full multi-process deployment:
//
//	eventlayerd        -addr 127.0.0.1:7587 &
//	invalidb-server    -broker 127.0.0.1:7587 -qp 4 -wp 4 &
//	invalidb-appserver -broker 127.0.0.1:7587 -listen 127.0.0.1:7588 -journal /tmp/app.wal
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/eventlayer/tcp"
	"invalidb/internal/gateway"
	"invalidb/internal/obs"
	"invalidb/internal/storage"
)

func main() {
	var (
		broker  = flag.String("broker", "127.0.0.1:7587", "event-layer broker address")
		listen  = flag.String("listen", "127.0.0.1:7588", "gateway listen address for end-user clients")
		tenant  = flag.String("tenant", "default", "tenant id within the multi-tenant cluster")
		ns      = flag.String("namespace", "invalidb", "event-layer topic namespace")
		journal = flag.String("journal", "", "write-ahead log path (empty = volatile database)")
		obsAddr = flag.String("obs-addr", "", "observability HTTP address for /metrics, /healthz, /debug/pprof (empty disables; unauthenticated — \":port\" binds loopback, use an explicit host like 0.0.0.0:9090 to expose)")
		stats   = flag.Duration("stats", 10*time.Second, "stats print interval (0 disables)")

		outBudget = flag.Int("client-out-budget", 64<<10, "per-client outbound queue budget in bytes before events are shed")
		maxConns  = flag.Int("max-conns-per-tenant", 0, "cap on concurrent connections per tenant (0 = unlimited)")
		maxSubs   = flag.Int("max-subs-per-tenant", 0, "cap on concurrent subscriptions per tenant (0 = unlimited)")
		connRate  = flag.Float64("conn-rate-per-tenant", 0, "new connections per second per tenant (0 = unlimited)")
		subRate   = flag.Float64("sub-rate-per-tenant", 0, "new subscriptions per second per tenant (0 = unlimited)")
	)
	flag.Parse()

	db := storage.Open(storage.Options{})
	if *journal != "" {
		if _, err := os.Stat(*journal); err == nil {
			applied, err := db.Recover(*journal)
			if err != nil {
				fatal(fmt.Errorf("recover %s: %w", *journal, err))
			}
			fmt.Printf("invalidb-appserver: recovered %d journal records\n", applied)
		}
		j, err := storage.OpenJournal(*journal, storage.JournalOptions{})
		if err != nil {
			fatal(err)
		}
		defer j.Close()
		db.AttachJournal(j)
	}

	bus, err := tcp.Dial(*broker, tcp.ClientOptions{})
	if err != nil {
		fatal(err)
	}
	srv, err := appserver.New(db, bus, appserver.Options{Tenant: *tenant, Namespace: *ns})
	if err != nil {
		fatal(err)
	}
	gwOpts := gateway.Options{
		// Folding the gateway into the appserver's registry puts its
		// fan-out counters on the same -obs-addr endpoint.
		Metrics:   srv.Metrics(),
		OutBudget: *outBudget,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		},
	}
	if *maxConns > 0 || *maxSubs > 0 || *connRate > 0 || *subRate > 0 {
		q := gateway.Quota{MaxConns: *maxConns, MaxSubs: *maxSubs, ConnRate: *connRate, SubRate: *subRate}
		gwOpts.Quota = func(string) gateway.Quota { return q }
	}
	gw, err := gateway.ServeOptions(srv, *listen, gwOpts)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("invalidb-appserver: tenant %q on broker %s, gateway %s\n", *tenant, *broker, gw.Addr())

	if *obsAddr != "" {
		reg := srv.Metrics()
		db.RegisterMetrics(reg)
		o, err := obs.Serve(*obsAddr, obs.Options{
			Registry: reg,
			// Healthy while cluster heartbeats are arriving; during an
			// outage the appserver still serves reads but real-time
			// queries are frozen, which a load balancer should see.
			Healthy: srv.Connected,
			Logf: func(format string, args ...any) {
				fmt.Fprintf(os.Stderr, format+"\n", args...)
			},
		})
		if err != nil {
			fatal(err)
		}
		defer o.Close()
		fmt.Printf("invalidb-appserver: observability on http://%s\n", o.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	var tick <-chan time.Time
	if *stats > 0 {
		t := time.NewTicker(*stats)
		defer t.Stop()
		tick = t.C
	}
	for {
		select {
		case <-tick:
			fmt.Printf("invalidb-appserver: clients=%d subs=%d queries=%d renewals=%d\n",
				gw.Clients(), gw.Subscriptions(), gw.DistinctQueries(), srv.Renewals())
		case <-stop:
			_ = gw.Close()
			_ = srv.Close()
			_ = bus.Close()
			return
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "invalidb-appserver:", err)
	os.Exit(1)
}
