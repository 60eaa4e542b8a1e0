package main

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"
)

// Set-up is sampled all through a run, because contention on this box comes
// in spells that would cover any one group of set-ups: minSetups times
// before the timed phase (the last instance is kept for it), then in the gap
// after every chunk of the timed phase, a second in all over a full-length
// run. A 20 ms set-up is sampled about fifty times, a 200 ms one fourteen.
const (
	minSetups    = 5
	setupShare   = 1.0 / runSeconds
	chunkSeconds = 2.0
)

// setups times every set-up of one workload.
type setups[T any] struct {
	setup    func() (T, error)
	teardown func(T)
	times    []float64 // seconds
}

// timed performs one set-up from a collected heap, so every sample starts
// from the same allocator state whatever was torn down before it.
func (s *setups[T]) timed() (T, error) {
	runtime.GC()
	start := time.Now()
	inst, err := s.setup()
	if err != nil {
		return inst, fmt.Errorf("set-up %d: %w", len(s.times)+1, err)
	}
	s.times = append(s.times, time.Since(start).Seconds())
	return inst, nil
}

// first performs minSetups set-ups, tears down all but the last and
// returns that one.
func (s *setups[T]) first() (T, error) {
	for i := 1; ; i++ {
		inst, err := s.timed()
		if err != nil || i == minSetups {
			return inst, err
		}
		s.teardown(inst)
	}
}

// more spends about budget on further set-ups, at least one, tearing each
// down at once and collecting what it leaves before the loop resumes.
func (s *setups[T]) more(budget time.Duration) error {
	start := time.Now()
	for {
		inst, err := s.timed()
		if err != nil {
			return err
		}
		s.teardown(inst)
		if time.Since(start) >= budget {
			runtime.GC()
			return nil
		}
	}
}

// seconds is the reported set-up time: the floor of the samples, the rule
// of every other repeated piece of work (floors in estimate.go).
func (s *setups[T]) seconds() float64 {
	return sortedCopy(s.times)[0]
}

// chunks is how many chunks of about chunkSeconds the timed phase has.
func (e *env) chunks() int {
	if n := int(e.cfg.seconds/chunkSeconds + 0.5); n > 1 {
		return n
	}
	return 1
}

// timedPhase is the measuring phase of an untraced run: the main loop in
// chunks of about chunkSeconds with further set-ups in the gaps, reduced
// to the five end-to-end metrics.
func timedPhase[T any](e *env, su *setups[T], fn chunkFn) error {
	n := e.chunks()
	var p phase
	for i := 0; i < n; i++ {
		if err := p.measure(e.budget(1)/time.Duration(n), nil, fn); err != nil {
			return err
		}
		if err := su.more(e.budget(setupShare) / time.Duration(n)); err != nil {
			return err
		}
	}
	est := p.estimate()
	e.set("ops_per_s", est.opsPerS)
	e.set("latency_p50_ms", est.p50ms)
	e.set("latency_p90_ms", est.p90ms)
	e.set("alloc_bytes_per_op", float64(p.allocBytes)/p.ops)
	e.set("setup_s", su.seconds())
	return nil
}

// chunk is one measured stretch of a workload's main loop: the windows (a
// serve workload) or batches (a serial one) it completed, their ops, and
// the process counters read immediately before and after the loop itself
// (not around the harness's bookkeeping).
type chunk struct {
	slices []sliceStat
	recs   []batchRec // reused by the next chunk
	ops    float64
	c0, c1 counters
}

// chunkFn runs a workload's main loop for about d, recording spans into tr
// when it is non-nil.
type chunkFn func(d time.Duration, tr *tracer) (chunk, error)

// batchFn is a serial workload's op batch: it runs the next input and
// returns which one that was and the ops it completed.
type batchFn func() (input int, ops float64, err error)

// serialChunk adapts a serial workload's op batch to a chunkFn of at least
// one pass over its inputs. traced, when non-nil, is the batch that also
// records its span.
func serialChunk(inputs int, batch, traced batchFn) chunkFn {
	recs := make([]batchRec, 0, 1<<12)
	return func(d time.Duration, tr *tracer) (chunk, error) {
		run := batch
		if tr != nil {
			run = traced
		}
		var c chunk
		var err error
		c.c0 = readCounters()
		recs, err = serialRun(d, inputs, run, recs[:0])
		c.c1 = readCounters()
		for _, r := range recs {
			c.ops += r.ops
		}
		c.recs = recs
		return c, err
	}
}

// traceChunk is how long the traced pass runs each arm of the main loop
// before switching to the other: a second of a full-length run.
const traceChunk = 1.0 / runSeconds

// phase accumulates measured chunks of a workload's main loop.
type phase struct {
	slices     []sliceStat
	recs       []batchRec
	ops        float64
	allocBytes uint64
	cpu        time.Duration
}

// measure runs one chunk and adds it.
func (p *phase) measure(d time.Duration, tr *tracer, fn chunkFn) error {
	c, err := fn(d, tr)
	if err != nil {
		return err
	}
	if c.ops == 0 || len(c.slices)+len(c.recs) == 0 {
		return errors.New("no operation completed in the timed phase")
	}
	p.slices = append(p.slices, c.slices...)
	p.recs = append(p.recs, c.recs...)
	p.ops += c.ops
	p.allocBytes += c.c1.allocBytes - c.c0.allocBytes
	p.cpu += c.c1.cpu - c.c0.cpu
	return nil
}

// estimate reduces the phase by the rule of its kind of workload.
func (p *phase) estimate() estimate {
	if len(p.recs) > 0 {
		return floors(p.recs)
	}
	return summarize(p.slices)
}

// traceOverhead alternates untraced and traced chunks of the main loop
// (traceChunk each) for the budget, so a machine burst lands on both arms, and stores the
// harness's own per-layer metrics: the untraced arm's CPU cost and slice
// diagnostics, and what tracing cost in throughput.
func (e *env) traceOverhead(budget time.Duration, fn chunkFn) error {
	chunk := e.budget(traceChunk)
	var untraced, traced phase
	start := time.Now()
	for n := 0; n < 2 || time.Since(start) < budget; n++ {
		if err := untraced.measure(chunk, nil, fn); err != nil {
			return err
		}
		if err := traced.measure(chunk, e.tr, fn); err != nil {
			return err
		}
	}
	u, t := untraced.estimate(), traced.estimate()
	e.set("bench.cpu_us_per_op", float64(untraced.cpu)/1e3/untraced.ops)
	e.set("bench.ops_slice_median", u.opsMedian)
	e.set("bench.ops_slice_iqr_pct", u.opsIQRPct)
	e.set("bench.p50_slice_iqr_pct", u.p50IQRPct)
	e.set("bench.trace_overhead_pct", math.Max(0, 100*(u.opsPerS-t.opsPerS)/u.opsPerS))
	return nil
}

// startTrace records the steady-state live heap and only then allocates
// the span buffer, so the harness's own memory stays out of the figure.
func (e *env) startTrace() {
	e.set("bench.live_heap_mb", liveHeapMB())
	e.tr = newTracer()
}
