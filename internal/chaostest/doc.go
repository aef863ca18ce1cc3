// Package chaostest exercises the full InvaliDB stack — database, event
// layer, matching cluster, and application server — under injected faults.
// Every scenario wires an eventlayer.FaultBus between the components and
// runs the configuration every binary runs, then asserts the end-to-end
// delivery guarantees the recovery machinery is supposed to provide:
//
//   - message drops, delays, duplicates and reorderings on the event layer
//     must never corrupt a subscription's maintained result (duplicates are
//     deduplicated by origin/sequence, stale versions are discarded, and a
//     re-subscription repairs anything the bus silently dropped);
//   - a full partition of the notification topics must surface exactly one
//     Disconnected event, and healing it exactly one Reconnected event with
//     the complete refreshed result;
//   - a panicking matching node must be restarted by the topology
//     supervisor, and a cluster process may be replaced faster than the
//     heartbeat watchdog notices: either way the heartbeat says so and the
//     application server re-subscribes from the database, so the pushed
//     result equals the pull query again without any client action.
//
// The package contains only tests (run them with `make chaos`); it has no
// production code.
package chaostest
