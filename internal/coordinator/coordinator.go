// Package coordinator implements the control plane of a multi-process
// InvaliDB matching grid (DESIGN.md §13). Exactly one coordinator process
// owns the assignment of global query-partition rows to server processes;
// it publishes each assignment as a PartitionMap epoch on the retained
// control topic, where every cluster process (and application server)
// installs it. Server processes announce themselves with NodeHellos on the
// coordination topic and acknowledge installed epochs with EpochAcks; an
// operator requests a live resize by publishing a ResizeRequest there (or
// by calling AddQueryPartition/AddWritePartition directly).
//
// The coordinator itself holds no subscription state and no data-path
// state: a crashed coordinator is replaced by starting a new one, which
// recovers the authoritative map from the retained control topic or — if
// the broker also restarted — from the NodeHellos of the running fleet
// (each carries the highest epoch its sender routes by). Data keeps
// flowing through an outage; only resizes stall.
package coordinator

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
)

// Options configures a Coordinator.
type Options struct {
	// Namespace is the event-layer topic namespace. Default "invalidb".
	Namespace string
	// QueryPartitions and WritePartitions are the INITIAL grid dimensions:
	// the coordinator publishes its first map as soon as the announced
	// fleet can host this many rows at this column width. Defaults 1 and 1.
	QueryPartitions int
	WritePartitions int
	// RepublishInterval is the cadence of map re-publications and node
	// expiry sweeps. Default 1s.
	RepublishInterval time.Duration
	// NodeExpiry drops a node from placement consideration when no hello
	// arrived for this long. Default 10s. Already-assigned rows are NOT
	// reassigned automatically — the paper's failure model restarts the
	// process (same node id) and resync repopulates it.
	NodeExpiry time.Duration
	// Logf receives control-plane diagnostics; nil silences them.
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Namespace == "" {
		o.Namespace = "invalidb"
	}
	if o.QueryPartitions <= 0 {
		o.QueryPartitions = 1
	}
	if o.WritePartitions <= 0 {
		o.WritePartitions = 1
	}
	if o.RepublishInterval <= 0 {
		o.RepublishInterval = time.Second
	}
	if o.NodeExpiry <= 0 {
		o.NodeExpiry = 10 * time.Second
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// nodeState is the coordinator's view of one announced server process.
type nodeState struct {
	slots    int
	maxWP    int
	lastSeen time.Time
}

// Coordinator is the grid's control plane. Create with New, then Start.
type Coordinator struct {
	bus    eventlayer.Bus
	opts   Options
	topics core.Topics

	mu    sync.Mutex
	nodes map[string]*nodeState
	cur   *core.PartitionMap
	acks  map[string]uint64 // node -> highest acked epoch

	sub     eventlayer.Subscription
	stop    chan struct{}
	wg      sync.WaitGroup
	started bool
}

// New creates a coordinator over the given event layer.
func New(bus eventlayer.Bus, opts Options) (*Coordinator, error) {
	if bus == nil {
		return nil, fmt.Errorf("coordinator: nil event layer")
	}
	opts = opts.withDefaults()
	return &Coordinator{
		bus:    bus,
		opts:   opts,
		topics: core.NewTopics(opts.Namespace),
		nodes:  map[string]*nodeState{},
		acks:   map[string]uint64{},
		stop:   make(chan struct{}),
	}, nil
}

// Start subscribes to the coordination and control topics and launches the
// control loop. The control-topic subscription is the crash-recovery path:
// it is retained, so a freshly started coordinator immediately receives the
// map its predecessor last published and resumes from that epoch.
func (c *Coordinator) Start() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.started {
		return fmt.Errorf("coordinator: already started")
	}
	sub, err := c.bus.Subscribe(c.topics.Coord(), c.topics.Control())
	if err != nil {
		return err
	}
	c.sub = sub
	c.started = true
	c.wg.Add(1)
	go c.loop()
	return nil
}

// Stop halts the control loop. The retained map stays on the broker, so the
// grid keeps routing and a successor coordinator picks up where this one
// left off.
func (c *Coordinator) Stop() {
	c.mu.Lock()
	if !c.started {
		c.mu.Unlock()
		return
	}
	c.started = false
	c.mu.Unlock()
	close(c.stop)
	_ = c.sub.Close()
	c.wg.Wait()
}

func (c *Coordinator) loop() {
	defer c.wg.Done()
	ticker := time.NewTicker(c.opts.RepublishInterval)
	defer ticker.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-ticker.C:
			c.tick()
		case msg, ok := <-c.sub.C():
			if !ok {
				return
			}
			c.handle(msg.Payload)
		}
	}
}

func (c *Coordinator) handle(payload []byte) {
	env, err := core.DecodeWire(payload)
	if err != nil {
		return
	}
	switch env.Kind {
	case core.KindNodeHello:
		c.handleHello(env.Hello)
	case core.KindEpochAck:
		c.mu.Lock()
		if env.EpochAck.Epoch > c.acks[env.EpochAck.Node] {
			c.acks[env.EpochAck.Node] = env.EpochAck.Epoch
		}
		c.mu.Unlock()
	case core.KindResize:
		var err error
		switch env.Resize.Axis {
		case core.ResizeAxisQP:
			err = c.AddQueryPartition()
		case core.ResizeAxisWP:
			err = c.AddWritePartition()
		}
		if err != nil {
			c.opts.Logf("coordinator: resize %s: %v", env.Resize.Axis, err)
		}
	case core.KindPartitionMap:
		// Retained control topic (crash recovery): adopt a higher epoch
		// published by a predecessor.
		c.adopt(env.Map)
	}
}

func (c *Coordinator) handleHello(h *core.NodeHello) {
	c.mu.Lock()
	n := c.nodes[h.Node]
	if n == nil {
		n = &nodeState{}
		c.nodes[h.Node] = n
		c.opts.Logf("coordinator: node %s joined (%d slots, max wp %d)", h.Node, h.Slots, h.MaxWritePartitions)
	}
	n.slots = h.Slots
	n.maxWP = h.MaxWritePartitions
	n.lastSeen = time.Now()
	if h.Map != nil && h.Map.Epoch > c.acks[h.Node] {
		// A node routing by epoch E has installed it: an implicit ack, which
		// is how a successor coordinator (whose ack table started empty)
		// regains convergence tracking for epochs acked before it existed.
		c.acks[h.Node] = h.Map.Epoch
	}
	c.mu.Unlock()
	if h.Map != nil {
		// A node routing by a higher epoch than ours means we crashed after
		// publishing it: adopt the fleet's view.
		c.adopt(h.Map)
	}
	c.tryInitialPlacement()
}

// adopt installs a recovered map when its epoch exceeds the current one.
func (c *Coordinator) adopt(m *core.PartitionMap) {
	c.mu.Lock()
	if c.cur == nil || m.Epoch > c.cur.Epoch {
		c.cur = m.Clone()
		c.opts.Logf("coordinator: adopted map epoch %d (%dx%d)", m.Epoch, m.QueryPartitions, m.WritePartitions)
	}
	c.mu.Unlock()
}

// tick republishes the current map (late joiners converge even if the
// retained copy was lost with a broker restart) and expires silent nodes
// from placement consideration.
func (c *Coordinator) tick() {
	c.mu.Lock()
	cutoff := time.Now().Add(-c.opts.NodeExpiry)
	for name, n := range c.nodes {
		if n.lastSeen.Before(cutoff) {
			delete(c.nodes, name)
			c.opts.Logf("coordinator: node %s expired", name)
		}
	}
	m := c.cur
	c.mu.Unlock()
	if m != nil {
		c.publish(m)
	}
	c.tryInitialPlacement()
}

// freeSlots returns a node's unassigned slot count under the given map.
func freeSlots(m *core.PartitionMap, node string, total int) int {
	used := 0
	if m != nil {
		for _, r := range m.Rows {
			if r.Node == node {
				used++
			}
		}
	}
	return total - used
}

// pickNode returns the placement-eligible node with the most free slots
// under m, ties broken lexicographically; "" when none has a free slot.
// Only nodes whose column capacity covers wp are eligible.
func (c *Coordinator) pickNode(m *core.PartitionMap, wp int) string {
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	best, bestFree := "", 0
	for _, name := range names {
		n := c.nodes[name]
		if n.maxWP < wp {
			continue
		}
		if free := freeSlots(m, name, n.slots); free > bestFree {
			best, bestFree = name, free
		}
	}
	return best
}

// tryInitialPlacement forms and publishes the first map once the announced
// fleet can host the initial QP x WP grid.
func (c *Coordinator) tryInitialPlacement() {
	c.mu.Lock()
	if c.cur != nil {
		c.mu.Unlock()
		return
	}
	m := &core.PartitionMap{
		Epoch:           1,
		QueryPartitions: c.opts.QueryPartitions,
		WritePartitions: c.opts.WritePartitions,
	}
	for row := 0; row < c.opts.QueryPartitions; row++ {
		node := c.pickNode(m, c.opts.WritePartitions)
		if node == "" {
			c.mu.Unlock()
			return // not enough capacity announced yet
		}
		slot := c.nodes[node].slots - freeSlots(m, node, c.nodes[node].slots)
		m.Rows = append(m.Rows, core.RowAssignment{Node: node, Slot: slot})
	}
	c.cur = m
	c.mu.Unlock()
	c.opts.Logf("coordinator: initial map epoch 1 (%dx%d across %d rows)", m.QueryPartitions, m.WritePartitions, len(m.Rows))
	c.publish(m)
}

// AddQueryPartition grows the grid by one query-partition row, placed on
// the node with the most free slots, and publishes the new epoch. The new
// row changes every query's hash->row mapping, so application servers
// re-install the subscriptions it moved on seeing the epoch; writes keep
// flowing to the old rows throughout (the cluster routes
// writes by the newest map only, and every owned row receives them).
func (c *Coordinator) AddQueryPartition() error {
	c.mu.Lock()
	if c.cur == nil {
		c.mu.Unlock()
		return fmt.Errorf("coordinator: no map published yet")
	}
	next := c.cur.Clone()
	next.Epoch++
	next.QueryPartitions++
	node := c.pickNode(next, next.WritePartitions)
	if node == "" {
		c.mu.Unlock()
		return fmt.Errorf("coordinator: no node with a free slot for row %d", next.QueryPartitions-1)
	}
	slot := c.nodes[node].slots - freeSlots(next, node, c.nodes[node].slots)
	next.Rows = append(next.Rows, core.RowAssignment{Node: node, Slot: slot})
	c.cur = next
	c.mu.Unlock()
	c.opts.Logf("coordinator: epoch %d adds row %d on %s slot %d", next.Epoch, next.QueryPartitions-1, node, slot)
	c.publish(next)
	return nil
}

// AddWritePartition grows the grid by one write-partition column and
// publishes the new epoch. Every assigned node must have the column
// headroom (its WritePartitions); the columns already exist as idle tasks on
// each process, so no rows move — keys re-hash across columns, and each
// subscription's re-install plus the clients' per-key version guards absorb
// the re-slicing.
func (c *Coordinator) AddWritePartition() error {
	c.mu.Lock()
	if c.cur == nil {
		c.mu.Unlock()
		return fmt.Errorf("coordinator: no map published yet")
	}
	next := c.cur.Clone()
	next.Epoch++
	next.WritePartitions++
	for _, r := range next.Rows {
		n := c.nodes[r.Node]
		if n == nil {
			c.mu.Unlock()
			return fmt.Errorf("coordinator: assigned node %s not announced", r.Node)
		}
		if n.maxWP < next.WritePartitions {
			c.mu.Unlock()
			return fmt.Errorf("coordinator: node %s capacity %d < %d write partitions", r.Node, n.maxWP, next.WritePartitions)
		}
	}
	c.cur = next
	c.mu.Unlock()
	c.opts.Logf("coordinator: epoch %d widens grid to %d write partitions", next.Epoch, next.WritePartitions)
	c.publish(next)
	return nil
}

func (c *Coordinator) publish(m *core.PartitionMap) {
	env := &core.Envelope{Kind: core.KindPartitionMap, Map: m}
	data, err := env.Encode()
	if err != nil {
		c.opts.Logf("coordinator: encode map: %v", err)
		return
	}
	if err := c.bus.Publish(c.topics.Control(), data); err != nil {
		c.opts.Logf("coordinator: publish map: %v", err)
	}
}

// CurrentMap returns a copy of the published map, or nil before initial
// placement.
func (c *Coordinator) CurrentMap() *core.PartitionMap {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return nil
	}
	return c.cur.Clone()
}

// Nodes returns the names of the currently announced server processes.
func (c *Coordinator) Nodes() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.nodes))
	for name := range c.nodes {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Converged reports whether every node assigned rows in the current map has
// acknowledged its epoch.
func (c *Coordinator) Converged() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cur == nil {
		return false
	}
	for _, r := range c.cur.Rows {
		if c.acks[r.Node] < c.cur.Epoch {
			return false
		}
	}
	return true
}

// WaitConverged blocks until Converged or the timeout elapses.
func (c *Coordinator) WaitConverged(timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if c.Converged() {
			return true
		}
		time.Sleep(10 * time.Millisecond)
	}
	return c.Converged()
}
