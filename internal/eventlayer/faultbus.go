package eventlayer

import (
	"math/rand"
	"sync"
	"time"

	"invalidb/internal/metrics"
)

// FaultConfig tunes the failure modes a FaultBus injects. Rates are
// probabilities in [0,1]; at most one fault is applied per message, chosen
// by a single roll of the seeded generator so a given seed always yields
// the same fault sequence for the same sequence of Publish calls.
type FaultConfig struct {
	// Seed makes the fault sequence reproducible. Zero selects seed 1.
	Seed int64
	// Topics restricts fault injection to topics matching any of these
	// patterns (same syntax as Subscribe). Empty means all topics.
	Topics []string
	// DropRate is the probability a message is silently discarded.
	DropRate float64
	// DelayRate is the probability a message is delivered late, after a
	// uniformly random pause in (0, MaxDelay].
	DelayRate float64
	// MaxDelay bounds injected delivery delays. Zero selects 20ms.
	MaxDelay time.Duration
	// DuplicateRate is the probability a message is delivered twice.
	DuplicateRate float64
	// ReorderRate is the probability a message is held back and delivered
	// after the next published message (or after a short safety timeout,
	// so a held message is never lost on a quiet topic).
	ReorderRate float64
}

// FaultStats counts the faults a FaultBus has injected.
type FaultStats struct {
	Published   uint64 // messages offered to Publish
	Dropped     uint64 // silently discarded
	Delayed     uint64 // delivered late
	Duplicated  uint64 // delivered twice
	Reordered   uint64 // held past a later message
	Partitioned uint64 // black-holed by an active partition
}

// FaultBus wraps another Bus and injects configurable faults on the publish
// path: drops, delays, duplicates, reorderings, and full topic partitions.
// It exists so the recovery machinery (acking, retention replay, heartbeat
// failover, supervisor restarts) can be exercised deterministically in
// tests rather than trusted on faith. Subscriptions pass straight through
// to the wrapped bus; only Publish is perturbed.
type FaultBus struct {
	inner Bus

	mu          sync.Mutex
	cfg         FaultConfig
	rng         *rand.Rand
	partitions  []string
	held        *heldMessage
	delayed     map[*delayedMessage]struct{}
	closed      bool
	stats       FaultStats
	holdTimeout time.Duration
}

type heldMessage struct {
	topic   string
	payload []byte
	timer   *time.Timer
}

// delayedMessage is a publish parked on its own timer. Tracking the set of
// outstanding delays lets Close flush them immediately instead of waiting
// out the longest injected delay, and keeps the delivery path free of
// sleeps: a long delay on one topic cannot serialize anything behind it.
type delayedMessage struct {
	topic   string
	payload []byte
	timer   *time.Timer
}

// NewFaultBus wraps inner with fault injection governed by cfg.
func NewFaultBus(inner Bus, cfg FaultConfig) *FaultBus {
	fb := &FaultBus{inner: inner, delayed: make(map[*delayedMessage]struct{})}
	fb.applyConfigLocked(cfg)
	return fb
}

func (fb *FaultBus) applyConfigLocked(cfg FaultConfig) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	fb.cfg = cfg
	fb.rng = rand.New(rand.NewSource(cfg.Seed))
	fb.holdTimeout = cfg.MaxDelay
	if fb.holdTimeout < 5*time.Millisecond {
		fb.holdTimeout = 5 * time.Millisecond
	}
}

// SetConfig swaps the fault configuration at runtime and reseeds the
// generator, so a test can run fault-free warmup traffic and then turn
// chaos on (or off) at a known point.
func (fb *FaultBus) SetConfig(cfg FaultConfig) {
	fb.mu.Lock()
	fb.applyConfigLocked(cfg)
	fb.mu.Unlock()
}

// Partition black-holes every subsequent publish whose topic matches one
// of the given patterns, simulating a network partition between publisher
// and broker. Partitions stack until Heal is called.
func (fb *FaultBus) Partition(patterns ...string) {
	fb.mu.Lock()
	fb.partitions = append(fb.partitions, patterns...)
	fb.mu.Unlock()
}

// Heal lifts all partitions and flushes any message held for reordering.
func (fb *FaultBus) Heal() {
	fb.mu.Lock()
	fb.partitions = nil
	flush := fb.takeHeldLocked()
	fb.mu.Unlock()
	if flush != nil {
		fb.inner.Publish(flush.topic, flush.payload)
	}
}

// Stats returns a snapshot of the fault counters.
func (fb *FaultBus) Stats() FaultStats {
	fb.mu.Lock()
	defer fb.mu.Unlock()
	return fb.stats
}

// RegisterMetrics exports the fault counters into the registry so chaos
// runs report injected-fault volume alongside the pipeline metrics.
func (fb *FaultBus) RegisterMetrics(r *metrics.Registry) {
	r.Collect(func(emit func(name string, v float64)) {
		st := fb.Stats()
		emit("faultbus.published", float64(st.Published))
		emit("faultbus.dropped", float64(st.Dropped))
		emit("faultbus.delayed", float64(st.Delayed))
		emit("faultbus.duplicated", float64(st.Duplicated))
		emit("faultbus.reordered", float64(st.Reordered))
		emit("faultbus.partitioned", float64(st.Partitioned))
	})
}

// takeHeldLocked detaches the held message (stopping its safety timer) so
// the caller can deliver it after releasing fb.mu.
func (fb *FaultBus) takeHeldLocked() *heldMessage {
	h := fb.held
	if h == nil {
		return nil
	}
	fb.held = nil
	h.timer.Stop()
	return h
}

// Publish implements Bus. It decides the message's fate under fb.mu but
// performs all inner-bus deliveries outside the lock so a slow or blocking
// inner Publish cannot serialize concurrent publishers through FaultBus.
func (fb *FaultBus) Publish(topic string, payload []byte) error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return ErrBusClosed
	}
	fb.stats.Published++

	for _, p := range fb.partitions {
		if MatchPattern(p, topic) {
			fb.stats.Partitioned++
			flush := fb.takeHeldLocked()
			fb.mu.Unlock()
			if flush != nil {
				fb.inner.Publish(flush.topic, flush.payload)
			}
			return nil // fire-and-forget: the publisher never learns
		}
	}

	flush := fb.takeHeldLocked()

	eligible := len(fb.cfg.Topics) == 0
	for _, p := range fb.cfg.Topics {
		if MatchPattern(p, topic) {
			eligible = true
			break
		}
	}

	copies := 1
	var delay time.Duration
	hold := false
	if eligible {
		roll := fb.rng.Float64()
		switch c := fb.cfg; {
		case roll < c.DropRate:
			fb.stats.Dropped++
			copies = 0
		case roll < c.DropRate+c.DelayRate:
			fb.stats.Delayed++
			delay = time.Duration(1 + fb.rng.Int63n(int64(c.MaxDelay)))
		case roll < c.DropRate+c.DelayRate+c.DuplicateRate:
			fb.stats.Duplicated++
			copies = 2
		case roll < c.DropRate+c.DelayRate+c.DuplicateRate+c.ReorderRate:
			fb.stats.Reordered++
			hold = true
		}
	}

	if hold {
		h := &heldMessage{topic: topic, payload: payload}
		h.timer = time.AfterFunc(fb.holdTimeout, func() { fb.flushHeld(h) })
		fb.held = h
		fb.mu.Unlock()
		if flush != nil {
			fb.inner.Publish(flush.topic, flush.payload)
		}
		return nil
	}

	if delay > 0 {
		d := &delayedMessage{topic: topic, payload: payload}
		fb.delayed[d] = struct{}{}
		d.timer = time.AfterFunc(delay, func() { fb.deliverDelayed(d) })
		fb.mu.Unlock()
		if flush != nil {
			fb.inner.Publish(flush.topic, flush.payload)
		}
		return nil
	}

	fb.mu.Unlock()
	var err error
	for i := 0; i < copies; i++ {
		if e := fb.inner.Publish(topic, payload); e != nil {
			err = e
		}
	}
	if flush != nil {
		fb.inner.Publish(flush.topic, flush.payload)
	}
	return err
}

// deliverDelayed is the timer path for an injected delay: deliver d unless
// Close already flushed it (it is gone from the tracking set).
func (fb *FaultBus) deliverDelayed(d *delayedMessage) {
	fb.mu.Lock()
	if _, ok := fb.delayed[d]; !ok {
		fb.mu.Unlock()
		return
	}
	delete(fb.delayed, d)
	fb.mu.Unlock()
	fb.inner.Publish(d.topic, d.payload)
}

// flushHeld is the safety-timer path: if the held message is still h (no
// later publish displaced it), deliver it now so quiet topics cannot lose
// a reordered message forever.
func (fb *FaultBus) flushHeld(h *heldMessage) {
	fb.mu.Lock()
	if fb.held != h || fb.closed {
		fb.mu.Unlock()
		return
	}
	fb.held = nil
	fb.mu.Unlock()
	fb.inner.Publish(h.topic, h.payload)
}

// Subscribe implements Bus by delegating to the wrapped bus: faults are
// injected on the publish side only.
func (fb *FaultBus) Subscribe(patterns ...string) (Subscription, error) {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return nil, ErrBusClosed
	}
	fb.mu.Unlock()
	return fb.inner.Subscribe(patterns...)
}

// Close implements Bus. Any message held for reordering is flushed (not
// lost), pending delayed deliveries are flushed immediately rather than
// waited out, then the wrapped bus is closed. Close therefore returns
// promptly even when MaxDelay is large.
func (fb *FaultBus) Close() error {
	fb.mu.Lock()
	if fb.closed {
		fb.mu.Unlock()
		return nil
	}
	fb.closed = true
	flush := fb.takeHeldLocked()
	pending := make([]*delayedMessage, 0, len(fb.delayed))
	for d := range fb.delayed {
		d.timer.Stop()
		pending = append(pending, d)
	}
	fb.delayed = make(map[*delayedMessage]struct{})
	fb.mu.Unlock()
	if flush != nil {
		fb.inner.Publish(flush.topic, flush.payload)
	}
	for _, d := range pending {
		fb.inner.Publish(d.topic, d.payload)
	}
	return fb.inner.Close()
}
