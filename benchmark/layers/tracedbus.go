//go:build bench

package layers

import (
	"bytes"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"invalidb/internal/core"
	"invalidb/internal/eventlayer"
)

// Tracer records what crosses the event layer during the traced run: per
// topic message and byte counts, and for every write carrying a token
// "~<seq>~" the first time it is published on the writes topic, the first
// time a notification carrying it is published on a notify topic, and the
// first time that notification is handed to a subscriber. The token is
// found by scanning the payload bytes — strings travel verbatim in both
// wire formats — so no codec is imported and a codec change cannot skew the
// stamps.
type Tracer struct {
	on    atomic.Bool
	epoch time.Time

	writes string // the writes topic
	notify string // prefix of the per-tenant notify topics

	mu      sync.Mutex
	traffic map[string]*Traffic
	spans   map[int32]*Span
}

// Traffic counts one topic's publishes.
type Traffic struct{ Msgs, Bytes int64 }

// Span holds one write's event-layer stamps in ns since the tracer's epoch;
// zero means not seen.
type Span struct{ WritePub, NotifyPub, NotifyDeliver int64 }

// NewTracer returns a tracer for the default topic namespace, stamping
// relative to epoch.
func NewTracer(epoch time.Time) *Tracer {
	topics := core.NewTopics("")
	return &Tracer{
		epoch:   epoch,
		writes:  topics.Writes(),
		notify:  topics.Notify(""),
		traffic: map[string]*Traffic{},
		spans:   map[int32]*Span{},
	}
}

// Enable switches stamping and counting on or off.
func (t *Tracer) Enable(on bool) { t.on.Store(on) }

// Wrap interposes the tracer on a bus.
func (t *Tracer) Wrap(b eventlayer.Bus) eventlayer.Bus { return &tracedBus{t: t, inner: b} }

// Snapshot returns copies of what was recorded.
func (t *Tracer) Snapshot() (map[string]Traffic, map[int32]Span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := make(map[string]Traffic, len(t.traffic))
	for k, v := range t.traffic {
		tr[k] = *v
	}
	sp := make(map[int32]Span, len(t.spans))
	for k, v := range t.spans {
		sp[k] = *v
	}
	return tr, sp
}

func (t *Tracer) span(seq int32) *Span {
	s := t.spans[seq]
	if s == nil {
		s = &Span{}
		t.spans[seq] = s
	}
	return s
}

func (t *Tracer) published(topic string, payload []byte) {
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.traffic[topic]
	if tr == nil {
		tr = &Traffic{}
		t.traffic[topic] = tr
	}
	tr.Msgs++
	tr.Bytes += int64(len(payload))
	isWrite := topic == t.writes
	if !isWrite && !strings.HasPrefix(topic, t.notify) {
		return
	}
	seq := token(payload)
	if seq < 0 {
		return
	}
	s := t.span(seq)
	switch {
	case isWrite && s.WritePub == 0:
		s.WritePub = now
	case !isWrite && s.NotifyPub == 0:
		s.NotifyPub = now
	}
}

func (t *Tracer) delivered(topic string, payload []byte) {
	if !strings.HasPrefix(topic, t.notify) {
		return
	}
	seq := token(payload)
	if seq < 0 {
		return
	}
	now := int64(time.Since(t.epoch))
	t.mu.Lock()
	if s := t.span(seq); s.NotifyDeliver == 0 {
		s.NotifyDeliver = now
	}
	t.mu.Unlock()
}

// token finds the first "~<digits>~" in a payload.
func token(p []byte) int32 {
	for {
		i := bytes.IndexByte(p, '~')
		if i < 0 {
			return -1
		}
		p = p[i+1:]
		var n int32
		j := 0
		for j < len(p) && j < 10 && p[j] >= '0' && p[j] <= '9' {
			n = n*10 + int32(p[j]-'0')
			j++
		}
		if j > 0 && j < len(p) && p[j] == '~' {
			return n
		}
	}
}

type tracedBus struct {
	t     *Tracer
	inner eventlayer.Bus
}

func (b *tracedBus) Publish(topic string, payload []byte) error {
	if b.t.on.Load() {
		b.t.published(topic, payload)
	}
	return b.inner.Publish(topic, payload)
}

func (b *tracedBus) Close() error { return b.inner.Close() }

// Subscribe relays the inner subscription through a goroutine that stamps
// each notification as it is handed on. The relay is one more hop than the
// bare stack has; trace.overhead_ratio reports what it and the stamping
// cost.
func (b *tracedBus) Subscribe(patterns ...string) (eventlayer.Subscription, error) {
	inner, err := b.inner.Subscribe(patterns...)
	if err != nil {
		return nil, err
	}
	// Same depth as the event layer's own subscriber buffer, so the relay
	// never becomes the place where a slow consumer loses messages.
	s := &tracedSub{inner: inner, out: make(chan eventlayer.Message, 4096), stop: make(chan struct{})}
	go func() {
		defer close(s.out)
		for m := range inner.C() {
			if b.t.on.Load() {
				b.t.delivered(m.Topic, m.Payload)
			}
			select {
			case s.out <- m:
			case <-s.stop:
				return
			}
		}
	}()
	return s, nil
}

type tracedSub struct {
	inner eventlayer.Subscription
	out   chan eventlayer.Message
	stop  chan struct{}
	once  sync.Once
}

func (s *tracedSub) C() <-chan eventlayer.Message { return s.out }
func (s *tracedSub) Dropped() uint64              { return s.inner.Dropped() }
func (s *tracedSub) Close() error {
	s.once.Do(func() { close(s.stop) })
	return s.inner.Close()
}
