//go:build bench

package main

import (
	"time"

	"invalidb"
	"invalidb/benchmark/layers"
)

func init() {
	kit = &layerKit{
		probes: layers.Probes,
		newTracer: func(epoch time.Time) busTracer {
			return tracerAdapter{layers.NewTracer(epoch)}
		},
	}
}

// tracerAdapter renders the layers package's types in the main package's
// terms, which the untagged build must be able to name.
type tracerAdapter struct{ t *layers.Tracer }

func (a tracerAdapter) wrap(b invalidb.Bus) invalidb.Bus { return a.t.Wrap(b) }
func (a tracerAdapter) enable(on bool)                   { a.t.Enable(on) }

func (a tracerAdapter) snapshot() (busBytes int64, spans map[int32]busSpan) {
	traffic, raw := a.t.Snapshot()
	for _, tr := range traffic {
		busBytes += tr.Bytes
	}
	spans = make(map[int32]busSpan, len(raw))
	for seq, s := range raw {
		spans[seq] = busSpan{writePub: s.WritePub, notifyPub: s.NotifyPub, notifyDeliver: s.NotifyDeliver}
	}
	return busBytes, spans
}
