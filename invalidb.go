// Package invalidb is a from-scratch Go implementation of InvaliDB
// (Wingerath, Gessert, Ritter: "Scalable Push-Based Real-Time Queries on Top
// of Pull-Based Databases", PVLDB 13(12)/ICDE 2020): a real-time database
// layered on top of a pull-based document store. Clients subscribe to
// ordinary collection queries — sorted filter queries with limit and offset,
// in the MongoDB query language — and receive the initial result followed by
// a push-based stream of incremental change events (add, change,
// changeIndex, remove).
//
// The heart of the system is the InvaliDB cluster's two-dimensional workload
// partitioning: queries are hash-partitioned across query partitions and
// writes are hash-partitioned across write partitions, so each matching node
// handles a subset of queries against a fraction of the write stream. Adding
// query partitions scales the number of sustainable concurrent queries;
// adding write partitions scales sustainable write throughput — both
// linearly (paper §6).
//
// The package wires together the subsystems under internal/: a sharded
// in-memory document database (standing in for MongoDB), a Redis-like
// pub/sub event layer (in-process or TCP), a Storm-like stream-processing
// runtime, the matching and sorting stages, and the application-server
// client. The quickest start:
//
//	dep, _ := invalidb.Open(invalidb.Config{QueryPartitions: 2, WritePartitions: 2})
//	defer dep.Close()
//	_ = dep.Server.Insert("articles", invalidb.Document{"_id": "1", "year": 2020})
//	sub, _ := dep.Server.Subscribe(invalidb.Spec{
//		Collection: "articles",
//		Filter:     map[string]any{"year": map[string]any{"$gte": 2018}},
//	})
//	for ev := range sub.C() { ... }
package invalidb

import (
	"fmt"
	"time"

	"invalidb/internal/appserver"
	"invalidb/internal/core"
	"invalidb/internal/document"
	"invalidb/internal/eventlayer"
	"invalidb/internal/eventlayer/tcp"
	"invalidb/internal/gateway"
	"invalidb/internal/query"
	"invalidb/internal/storage"
)

// Document is a JSON-style record keyed by "_id".
type Document = document.Document

// AfterImage is the fully specified representation of a written entity.
type AfterImage = document.AfterImage

// Spec describes a query: filter (MongoDB syntax), sort keys, limit, offset
// and projection.
type Spec = query.Spec

// SortKey is one ORDER BY component.
type SortKey = query.SortKey

// Query is a compiled, executable query.
type Query = query.Query

// CompileQuery validates and compiles a query specification.
func CompileQuery(spec Spec) (*Query, error) { return query.Compile(spec) }

// Event is one real-time subscription update.
type Event = appserver.Event

// EventType classifies subscription events.
type EventType = appserver.EventType

// Event types delivered on Subscription.C.
const (
	EventInitial     = appserver.EventInitial
	EventAdd         = appserver.EventAdd
	EventChange      = appserver.EventChange
	EventChangeIndex = appserver.EventChangeIndex
	EventRemove      = appserver.EventRemove
	EventError       = appserver.EventError
	// EventDisconnected and EventReconnected bracket a cluster heartbeat
	// outage: subscriptions survive it and are re-subscribed automatically.
	EventDisconnected = appserver.EventDisconnected
	EventReconnected  = appserver.EventReconnected
)

// Subscription is an active real-time query subscription.
type Subscription = appserver.Subscription

// Server is an application server: the broker between end users, the
// database and the InvaliDB cluster.
type Server = appserver.Server

// ServerOptions configures an application server. EventBuffer is a bound,
// not a reservation: a subscription's event queue is empty while its consumer
// keeps up, and a consumer more than EventBuffer events behind receives one
// event with the full current result in place of what it missed.
type ServerOptions = appserver.Options

// Cluster is a running InvaliDB matching cluster.
type Cluster = core.Cluster

// ClusterOptions configures a cluster (partition counts, node capacity,
// retention, heartbeats...).
type ClusterOptions = core.Options

// DB is the pull-based document database substrate.
type DB = storage.DB

// DBOptions configures the database.
type DBOptions = storage.Options

// Bus is the event layer: the asynchronous broker connecting application
// servers and the cluster.
type Bus = eventlayer.Bus

// OpenDB creates an empty in-memory sharded document database.
func OpenDB(opts DBOptions) *DB { return storage.Open(opts) }

// NewMemBus creates the in-process event layer.
func NewMemBus() Bus { return eventlayer.NewMemBus(eventlayer.MemBusOptions{}) }

// ServeBroker starts a standalone TCP event-layer broker (the multi-process
// deployment option), returning its address via Addr.
func ServeBroker(addr string) (*tcp.Server, error) {
	return tcp.Serve(addr, tcp.ServerOptions{})
}

// DialBroker connects to a TCP event-layer broker.
func DialBroker(addr string) (Bus, error) {
	return tcp.Dial(addr, tcp.ClientOptions{})
}

// NewCluster assembles an InvaliDB cluster over an event layer. Call Start
// on the result.
func NewCluster(bus Bus, opts ClusterOptions) (*Cluster, error) {
	return core.NewCluster(bus, opts)
}

// NewServer creates an application server over a database and event layer.
func NewServer(db *DB, bus Bus, opts ServerOptions) (*Server, error) {
	return appserver.New(db, bus, opts)
}

// Gateway is a client-facing proxy serving end-user devices over TCP
// (newline-delimited JSON frames).
type Gateway = gateway.Server

// GatewayClient is the device-side connection to a Gateway.
type GatewayClient = gateway.Client

// GatewayOptions tunes a gateway: metrics registry, per-client outbound
// byte budget, fan-out sharding, and per-tenant quotas (DESIGN.md §14).
type GatewayOptions = gateway.Options

// GatewayQuota bounds one tenant's connections and subscriptions.
type GatewayQuota = gateway.Quota

// ServeGateway exposes an application server to end-user clients (paper
// Figure 1's end-user path).
func ServeGateway(srv *Server, addr string) (*Gateway, error) {
	return gateway.Serve(srv, addr)
}

// ServeGatewayOptions is ServeGateway with explicit options.
func ServeGatewayOptions(srv *Server, addr string, opts GatewayOptions) (*Gateway, error) {
	return gateway.ServeOptions(srv, addr, opts)
}

// DialGateway connects an end-user client to a gateway.
func DialGateway(addr string) (*GatewayClient, error) {
	return gateway.DialClient(addr)
}

// Journal is an append-only write-ahead log giving the database durability
// across restarts.
type Journal = storage.Journal

// OpenJournal opens (creating if needed) a journal file; attach it with
// DB.AttachJournal and replay it with DB.Recover.
func OpenJournal(path string) (*Journal, error) {
	return storage.OpenJournal(path, storage.JournalOptions{})
}

// Config is the one-call configuration for a single-process deployment.
type Config struct {
	// QueryPartitions and WritePartitions shape the matching grid.
	QueryPartitions int
	WritePartitions int
	// NodeCapacity throttles each matching node (match-ops/second);
	// zero disables throttling.
	NodeCapacity int
	// Tenant names the application (default "default").
	Tenant string
	// Slack is the sorted-query slack (default 3); MaxSlack caps its
	// adaptive growth across renewals (default 64).
	Slack    int
	MaxSlack int
	// RenewalMinInterval is the poll frequency rate limit for query
	// renewals (default 100ms).
	RenewalMinInterval time.Duration
	// HeartbeatInterval, RetentionTime and TTL tune liveness; zero values
	// select production-like defaults.
	HeartbeatInterval time.Duration
	RetentionTime     time.Duration
	TTL               time.Duration
}

// Deployment bundles a complete single-process InvaliDB stack: database,
// event layer, cluster and one application server.
type Deployment struct {
	Bus     Bus
	DB      *DB
	Cluster *Cluster
	Server  *Server
}

// Open starts a complete in-process deployment.
func Open(cfg Config) (*Deployment, error) {
	bus := NewMemBus()
	cluster, err := NewCluster(bus, ClusterOptions{
		QueryPartitions:   cfg.QueryPartitions,
		WritePartitions:   cfg.WritePartitions,
		NodeCapacity:      cfg.NodeCapacity,
		HeartbeatInterval: cfg.HeartbeatInterval,
		RetentionTime:     cfg.RetentionTime,
	})
	if err != nil {
		_ = bus.Close()
		return nil, fmt.Errorf("invalidb: %w", err)
	}
	if err := cluster.Start(); err != nil {
		_ = bus.Close()
		return nil, fmt.Errorf("invalidb: %w", err)
	}
	db := OpenDB(DBOptions{})
	srv, err := NewServer(db, bus, ServerOptions{
		Tenant:             cfg.Tenant,
		Slack:              cfg.Slack,
		MaxSlack:           cfg.MaxSlack,
		RenewalMinInterval: cfg.RenewalMinInterval,
		TTL:                cfg.TTL,
	})
	if err != nil {
		cluster.Stop()
		_ = bus.Close()
		return nil, fmt.Errorf("invalidb: %w", err)
	}
	return &Deployment{Bus: bus, DB: db, Cluster: cluster, Server: srv}, nil
}

// Close tears the deployment down: server first, then cluster, then bus.
func (d *Deployment) Close() {
	if d.Server != nil {
		_ = d.Server.Close()
	}
	if d.Cluster != nil {
		d.Cluster.Stop()
	}
	if d.Bus != nil {
		_ = d.Bus.Close()
	}
}
