package main

import (
	"runtime/metrics"
	"syscall"
	"time"

	"repro/internal/layout"
)

// counters are the process-wide cumulative readings taken around a
// timed region; their difference is what the region cost.
type counters struct {
	cpu         time.Duration // process user + system CPU (getrusage)
	alloc       uint64        // heap bytes allocated, as MemStats.TotalAlloc counts them
	gcCycles    uint64
	gcCPU       float64 // runtime-estimated GC CPU, seconds
	busyCPU     float64 // runtime-estimated non-idle CPU, seconds
	resolutions uint64  // from-scratch layout computations
}

var runtimeSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCounters() counters {
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	s := make([]metrics.Sample, len(runtimeSamples))
	for i, name := range runtimeSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	return counters{
		cpu:         time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc:       s[0].Value.Uint64(),
		gcCycles:    s[1].Value.Uint64(),
		gcCPU:       s[2].Value.Float64(),
		busyCPU:     s[3].Value.Float64() - s[4].Value.Float64(),
		resolutions: layout.Resolutions(),
	}
}

func (c counters) sub(o counters) counters {
	return counters{
		cpu:         c.cpu - o.cpu,
		alloc:       c.alloc - o.alloc,
		gcCycles:    c.gcCycles - o.gcCycles,
		gcCPU:       c.gcCPU - o.gcCPU,
		busyCPU:     c.busyCPU - o.busyCPU,
		resolutions: c.resolutions - o.resolutions,
	}
}

func (c *counters) add(o counters) {
	c.cpu += o.cpu
	c.alloc += o.alloc
	c.gcCycles += o.gcCycles
	c.gcCPU += o.gcCPU
	c.busyCPU += o.busyCPU
	c.resolutions += o.resolutions
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
