package main

import (
	"runtime"
	"syscall"
	"time"
)

// rusage is the process's CPU time and peak resident set so far.
type rusage struct {
	cpu      time.Duration
	maxRSSMB float64
}

func (r *rusage) read() {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return
	}
	r.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	r.maxRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// counters is a snapshot of the allocator and CPU counters a phase is
// measured between.
type counters struct {
	allocBytes uint64
	mallocs    uint64
	cpu        time.Duration
}

func readCounters() counters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru rusage
	ru.read()
	return counters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, cpu: ru.cpu}
}

// liveHeapMB forces a collection and returns what survives it.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
