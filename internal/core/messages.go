// Package core implements the InvaliDB cluster — the paper's primary
// contribution (§5): a real-time query matching layer with two-dimensional
// workload partitioning. Queries are hash-partitioned across query
// partitions (QP) and broadcast within them; after-images are
// hash-partitioned by primary key across write partitions (WP) and broadcast
// within them. Every matching node owns exactly one (QP, WP) grid cell and
// therefore matches a subset of all queries against a fraction of all
// writes. Unsorted filter queries complete in the filtering stage; sorted
// queries flow into a separate sorting stage partitioned by query
// (§5.2/SEDA). The cluster is reachable only through the event layer and is
// multi-tenant.
package core

import (
	"fmt"

	"invalidb/internal/document"
	"invalidb/internal/query"
)

// MatchType encodes the kind of result change a notification reports
// (paper §5: add, change, changeIndex, remove).
type MatchType uint8

const (
	// MatchAdd reports a new result member.
	MatchAdd MatchType = iota + 1
	// MatchChange reports an updated result member (same position).
	MatchChange
	// MatchChangeIndex reports an updated result member that changed its
	// position (sorted queries only).
	MatchChangeIndex
	// MatchRemove reports an item that left the result.
	MatchRemove
	// MatchError reports a query maintenance error; the notification doubles
	// as a query renewal request (§5.2).
	MatchError
)

var matchTypeNames = map[MatchType]string{
	MatchAdd:         "add",
	MatchChange:      "change",
	MatchChangeIndex: "changeIndex",
	MatchRemove:      "remove",
	MatchError:       "error",
}

// String returns the paper's name for the match type.
func (m MatchType) String() string {
	if s, ok := matchTypeNames[m]; ok {
		return s
	}
	return fmt.Sprintf("MatchType(%d)", uint8(m))
}

// ResultEntry is one versioned member of a bootstrap result, in engine sort
// order.
type ResultEntry struct {
	Key     string
	Version uint64
	Doc     document.Document
}

// SubscribeRequest activates a real-time query. The application server has
// already executed the rewritten bootstrap query (offset removed, limit
// extended by offset+slack, §5.2) against the database; Result carries that
// bootstrap result. Re-subscribing an active query is a renewal: the sorting
// stage diffs old against new state and emits the incremental transition.
type SubscribeRequest struct {
	Tenant         string
	SubscriptionID string
	Query          query.Spec
	Slack          int
	TTLMillis      int64
	Result         []ResultEntry
	// Epoch stamps the partition-map epoch the sender routed by; zero means
	// "current". The owning node under the map at that epoch installs the
	// subscription (DESIGN.md §13).
	Epoch uint64
}

// CancelRequest deactivates one subscription of a query. It carries the
// query hash remembered by the application server, because the hash cannot
// be derived from anything but the original subscription (§5.1).
type CancelRequest struct {
	Tenant         string
	SubscriptionID string
	QueryHash      uint64
	// Epoch addresses the cancel at the map epoch the subscription was
	// installed under, so a migration tears down the OLD owner's install
	// without touching the new one (zero = current epoch).
	Epoch uint64
}

// Lease extends the TTL of an application server's subscriptions (§5: "TTL
// extension requests are periodically issued by the application server").
type Lease struct {
	Tenant    string
	TTLMillis int64
	Subs      []LeaseEntry
}

// LeaseEntry is one leased subscription and the query hash that routes it.
type LeaseEntry struct {
	SubscriptionID string
	QueryHash      uint64
}

// WriteEvent carries one after-image from an application server to the
// cluster.
type WriteEvent struct {
	Tenant string
	Image  *document.AfterImage
	// SentNs is the publisher's wall clock (UnixNano) at send time; zero
	// when the publisher predates stage tracing. It seeds the per-stage
	// latency breakdown carried through to notifications.
	SentNs int64
	// IngestNs is stamped by the write-ingest bolt when the event enters
	// the matching grid. Local to the cluster process, never serialized.
	IngestNs int64
}

// Notification is one change delta for a query result, pushed from the
// cluster to all subscribed application servers over the tenant's
// notification topic.
type Notification struct {
	Tenant  string
	QueryID string
	Type    MatchType
	Key     string
	Doc     document.Document
	Version uint64
	// Index is the item's position within the visible result for sorted
	// queries, -1 for unsorted queries.
	Index int
	// Seq orders notifications emitted for the same query by the same node.
	Seq uint64
	// Origin identifies the emitting node instance ("a:m3.0" = matching
	// task 3, incarnation 0, of the process named a; ":m3.0" in an unnamed
	// process, "s1.0" = sorting task 1, incarnation 0). Together with Seq it lets application
	// servers deduplicate redelivered notifications without mistaking a
	// restarted node's reset sequence counter for stale duplicates.
	Origin string
	// Error carries the maintenance-error message for MatchError
	// notifications, which double as query renewal requests.
	Error string
	// WriteNs/IngestNs/MatchNs are the stage timestamps (UnixNano) of the
	// originating write: publisher send time, write-ingest entry, and
	// matching-node emit. Zero for notifications not caused by a traced
	// write (bootstrap diffs). Receivers subtract
	// adjacent stamps for the per-stage latency Breakdown; cross-node
	// skew can make individual stages negative.
	WriteNs  int64
	IngestNs int64
	MatchNs  int64
}

// Backfill watermark phases and certificate statuses (DESIGN.md §12).
const (
	// BackfillPhaseLow marks the start of a chunk's watermark window.
	BackfillPhaseLow = "low"
	// BackfillPhaseHigh marks the end of a chunk's watermark window.
	BackfillPhaseHigh = "high"
	// BackfillStatusOK certifies a reconciled chunk.
	BackfillStatusOK = "ok"
	// BackfillStatusRestart tells a backfill driver that the owning node
	// restarted mid-backfill and the backfill must start over.
	BackfillStatusRestart = "restart"
)

// BackfillStart activates a subscription in backfill mode: the matching
// cells install the query with an empty tracked set and start applying live
// deltas immediately, while the application server streams the initial
// result in watermark-delimited chunks (BackfillChunk). The subscription is
// admitted client-side only once every chunk has been certified by every
// cell of the query's grid row.
type BackfillStart struct {
	Tenant         string
	SubscriptionID string
	// BackfillID distinguishes concurrent and restarted backfills of the
	// same subscription; certificates echo it.
	BackfillID string
	Query      query.Spec
	Slack      int
	TTLMillis  int64
	// Epoch routes the backfill at a specific map epoch (zero = current);
	// migrations stamp the NEW epoch so the new owner bootstraps.
	Epoch uint64
}

// BackfillChunk carries one chunk of a subscription's initial result, read
// from the store between the low and high watermarks (DBLog's virtual cut).
// Matching cells reconcile the chunk against writes observed inside the
// (Low, High) window — in-window deltas supersede chunk rows — and publish a
// BackfillCert when the cut is certified.
type BackfillChunk struct {
	Tenant         string
	SubscriptionID string
	BackfillID     string
	QueryHash      uint64
	// Chunk is the zero-based chunk index within the backfill.
	Chunk int
	// Low and High are the watermark sequence numbers bracketing the chunk
	// read; record versions draw from the same allocator, so any write that
	// raced the read has a version strictly inside the window.
	Low  uint64
	High uint64
	// Last marks the final chunk of the backfill.
	Last    bool
	Entries []ResultEntry
	// Epoch routes the chunk at the same map epoch as its BackfillStart.
	Epoch uint64
}

// BackfillMark travels the writes topic — in stream order with the
// after-images it brackets — announcing that watermark Seq was emitted into
// the oplog. Write ingestion flushes its pending batches and broadcasts the
// mark to every matching cell, so a cell that has seen a chunk's high mark
// has also processed every write committed before it.
type BackfillMark struct {
	Tenant     string
	BackfillID string
	Chunk      int
	// Phase is BackfillPhaseLow or BackfillPhaseHigh.
	Phase string
	// Seq is the watermark's global sequence number.
	Seq uint64
}

// BackfillCert is published on the tenant's notify topic by a matching cell
// after reconciling a chunk (Status "ok"). The application server admits the
// subscription once it holds ok-certificates from all Cells distinct cells
// for every chunk. Status "restart" (Chunk -1) never crosses the bus: the
// application server hands it to its own backfill drivers when a heartbeat
// shows that the node named in Origin restarted and lost its window state.
type BackfillCert struct {
	Tenant         string
	SubscriptionID string
	BackfillID     string
	QueryID        string
	// Chunk echoes the certified chunk index; -1 for restart certificates.
	Chunk int
	// Cell is the certifying cell's write-partition index; Cells is the row
	// width, so the receiver knows how many distinct certificates complete a
	// chunk.
	Cell  int
	Cells int
	Last  bool
	// Origin identifies the certifying node instance, like
	// Notification.Origin.
	Origin string
	// Status is BackfillStatusOK or BackfillStatusRestart.
	Status string
}

// Resize axes accepted by ResizeRequest.
const (
	// ResizeAxisQP asks the coordinator for one more query-partition row.
	ResizeAxisQP = "qp"
	// ResizeAxisWP asks the coordinator for one more write-partition column.
	ResizeAxisWP = "wp"
)

// NodeHello is a named process's periodic announcement on the coordinator
// topic: its identity, capacity (its grid's rows and columns), and the
// highest-epoch partition map it has installed. The map makes the
// coordinator crash-recoverable — a replacement coordinator adopts the
// highest epoch its nodes report instead of restarting from epoch 1.
type NodeHello struct {
	Node string
	// Slots is the number of local query-partition rows the process runs
	// (its Options.QueryPartitions).
	Slots int
	// MaxWritePartitions is the process's column capacity — the ceiling on
	// any map's WritePartitions it can serve (its Options.WritePartitions).
	MaxWritePartitions int
	// Map is the highest-epoch partition map the node holds, if any.
	Map *PartitionMap
}

// ResizeRequest asks the coordinator to grow the grid by one partition
// along the given axis ("qp" or "wp"). Published on the coordinator topic
// by operators (cmd/invalidb-coordinator -resize) or tests.
type ResizeRequest struct {
	Axis string
}

// EpochAck is a node's confirmation that it installed a partition map
// epoch; the coordinator uses it to track convergence of a resize.
type EpochAck struct {
	Node  string
	Epoch uint64
}

// Heartbeat is periodically published on every tenant's notification topic.
// Application servers flag subscriptions disconnected when heartbeats stop
// (§5.1), and re-subscribe a node's queries when its incarnation changes: the
// cluster never repairs lost query state itself, it only says that it lost
// some (DESIGN.md §3.4).
type Heartbeat struct {
	Tenant     string
	TimeMillis int64
	// Node is the emitting process (Options.NodeID; "" for an unnamed
	// process). Boot is drawn at random once per Cluster, so a replacement
	// process differs from the one it replaced even without a heartbeat gap;
	// Restarts counts supervisor restarts of the process's stateful tasks
	// (matching, sorting, extension stages), each of which came back empty.
	Node     string
	Boot     uint64
	Restarts uint64
}

// Envelope is the single wire format of the event layer: exactly one field
// besides Kind is set.
type Envelope struct {
	Kind          string
	Subscribe     *SubscribeRequest
	Cancel        *CancelRequest
	Write         *WriteEvent
	Notification  *Notification
	Heartbeat     *Heartbeat
	BackfillStart *BackfillStart
	BackfillChunk *BackfillChunk
	BackfillMark  *BackfillMark
	BackfillCert  *BackfillCert
	Map           *PartitionMap
	Hello         *NodeHello
	Resize        *ResizeRequest
	EpochAck      *EpochAck
	Lease         *Lease
}

// Envelope kinds.
const (
	KindSubscribe     = "subscribe"
	KindCancel        = "cancel"
	KindWrite         = "write"
	KindNotification  = "notification"
	KindHeartbeat     = "heartbeat"
	KindBackfillStart = "backfillStart"
	KindBackfillChunk = "backfillChunk"
	KindBackfillMark  = "backfillMark"
	KindBackfillCert  = "backfillCert"
	KindPartitionMap  = "partitionMap"
	KindNodeHello     = "nodeHello"
	KindResize        = "resize"
	KindEpochAck      = "epochAck"
	KindLease         = "lease"
)

// Encode serializes an envelope for the event layer (DESIGN.md §10) into a
// fresh buffer; DecodeWire is its inverse. Publishers that reuse a buffer
// call AppendEnvelope directly.
func (e *Envelope) Encode() ([]byte, error) {
	return AppendEnvelope(make([]byte, 0, 192), e)
}

// Topics used on the event layer, namespaced per cluster.
type Topics struct {
	ns string
}

// NewTopics creates the topic scheme for a cluster namespace (default
// "invalidb").
func NewTopics(namespace string) Topics {
	if namespace == "" {
		namespace = "invalidb"
	}
	return Topics{ns: namespace}
}

// Queries is the topic application servers publish subscription control
// messages to.
func (t Topics) Queries() string { return t.ns + ".queries" }

// Writes is the topic application servers publish after-images to.
func (t Topics) Writes() string { return t.ns + ".writes" }

// Notify is the per-tenant topic the cluster publishes notifications and
// heartbeats on.
func (t Topics) Notify(tenant string) string { return t.ns + ".notify." + tenant }

// Control is the topic the coordinator publishes partition maps on. The
// ".control" suffix makes it a retained topic: the event layer redelivers
// the last map to late subscribers, so a restarting server process learns
// the current epoch without waiting for the next periodic republish.
func (t Topics) Control() string { return t.ns + ".control" }

// Coord is the topic server processes and operators publish to the
// coordinator on: node hellos, epoch acks, and resize requests.
func (t Topics) Coord() string { return t.ns + ".coord" }

// QueryIDString formats a query hash as the public query identifier.
func QueryIDString(hash uint64) string { return fmt.Sprintf("q%016x", hash) }
