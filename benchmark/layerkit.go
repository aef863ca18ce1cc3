package main

import (
	"time"

	"invalidb"
)

// layerKit is what the bench-tagged layers package contributes: the
// isolated probes and the event-layer tracer. Both import the program's
// internal packages, so they sit behind the tag (layers_on.go) where a
// change to those packages can break them without breaking the end-to-end
// driver. kit stays nil in a build without the tag.
type layerKit struct {
	probes    func() map[string]float64
	newTracer func(epoch time.Time) busTracer
}

var kit *layerKit

// busTracer is the traced run's view of the tracedBus.
type busTracer interface {
	wrap(b invalidb.Bus) invalidb.Bus
	enable(on bool)
	// snapshot returns the bytes published on all topics while enabled and,
	// per write seq, the event-layer stamps in ns since the epoch.
	snapshot() (busBytes int64, spans map[int32]busSpan)
}

// busSpan holds one write's event-layer stamps; zero means not seen.
type busSpan struct{ writePub, notifyPub, notifyDeliver int64 }
