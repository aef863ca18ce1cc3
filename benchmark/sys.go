package main

import (
	"bytes"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssPeakMiB reads VmHWM, the process's peak resident set.
func rssPeakMiB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		if !bytes.HasPrefix(line, []byte("VmHWM:")) {
			continue
		}
		fields := bytes.Fields(line[len("VmHWM:"):])
		if len(fields) == 0 {
			return 0
		}
		kb, _ := strconv.ParseFloat(string(fields[0]), 64)
		return kb / 1024
	}
	return 0
}

// goSnapshot is the slice of runtime state the process metrics are deltas of.
type goSnapshot struct {
	mallocs, allocBytes uint64
	gcCPUFraction       float64
	numGC               int64
	pauses              []time.Duration // most recent first
}

func readGo() goSnapshot {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var gs debug.GCStats
	debug.ReadGCStats(&gs)
	return goSnapshot{
		mallocs:       ms.Mallocs,
		allocBytes:    ms.TotalAlloc,
		gcCPUFraction: ms.GCCPUFraction,
		numGC:         gs.NumGC,
		pauses:        gs.Pause,
	}
}

// gcPausesSince returns the stop-the-world pauses (ms, sorted) of the
// collections that ran between an earlier snapshot and this one.
func (g goSnapshot) gcPausesSince(before goSnapshot) []float64 {
	n := int(g.numGC - before.numGC)
	if n > len(g.pauses) {
		n = len(g.pauses)
	}
	ns := make([]int64, n)
	for i := 0; i < n; i++ {
		ns[i] = int64(g.pauses[i])
	}
	return nsToSortedMS(ns)
}
