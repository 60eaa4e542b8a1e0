package main

import (
	"math"
	"sort"
	"time"
)

// The estimators below are the fix for run-level means on a shared box
// whose neighbours slow it by up to half, in spells of a fraction of a second
// to minutes. Contention only ever adds time, so every timing metric is
// taken from the undisturbed end of what a run recorded, by one rule per
// kind of workload:
//
//   - serial workloads repeat the same inputs (a simulator run per derived
//     seed, an adaptation iteration), so each input's time is its floor, the
//     fastest of its repeats in the run: one undisturbed 20-40 ms is enough
//     to read it (floors);
//   - serve workloads have no repeatable unit — a closed loop's exchanges
//     depend on how batches happen to form — so their timed phase is cut into
//     250 ms windows of at least 400 exchanges and the run reports the quiet
//     decile across windows (summarize).

// quiet is the quantile across a serve workload's windows that its timing
// metrics report: the quiet-th quantile of latencies, the (1-quiet)-th of
// throughput. With 88 windows a run the decile rests on eight of them, so no
// single lucky window sets it.
const quiet = 0.10

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between closest ranks — the same rule as Python's
// statistics.quantiles(method="inclusive").
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// sliceStat is one window of a serve workload's timed phase.
type sliceStat struct {
	opsPerS float64
	p50ms   float64
	p90ms   float64
}

// estimate is the run-level summary of a timed phase: each figure is taken
// from the undisturbed end of what the run recorded.
type estimate struct {
	opsPerS float64
	p50ms   float64
	p90ms   float64

	// Diagnostics over every window (serve) or batch (serial), reported as
	// bench.* per-layer metrics so that nothing the rules discard is hidden.
	opsMedian float64
	opsIQRPct float64
	p50IQRPct float64
}

// summarize reduces a serve run's windows to the estimate at the quiet
// quantile.
func summarize(slices []sliceStat) estimate {
	n := len(slices)
	ops := make([]float64, n)
	p50 := make([]float64, n)
	p90 := make([]float64, n)
	for i, s := range slices {
		ops[i], p50[i], p90[i] = s.opsPerS, s.p50ms, s.p90ms
	}
	sort.Float64s(ops)
	sort.Float64s(p50)
	sort.Float64s(p90)
	return estimate{
		opsPerS:   quantile(ops, 1-quiet),
		p50ms:     quantile(p50, quiet),
		p90ms:     quantile(p90, quiet),
		opsMedian: quantile(ops, 0.5),
		opsIQRPct: iqrPct(ops),
		p50IQRPct: iqrPct(p50),
	}
}

// sliceOf computes one slice's stats from its latencies (milliseconds,
// consumed: sorted in place), the ops they completed and the wall time the
// slice took.
func sliceOf(latMs []float64, ops float64, wall time.Duration) sliceStat {
	sort.Float64s(latMs)
	return sliceStat{
		opsPerS: ops / wall.Seconds(),
		p50ms:   quantile(latMs, 0.5),
		p90ms:   quantile(latMs, 0.9),
	}
}

// batchRec is one batch of a serial workload: which of the workload's
// inputs it ran, how long it took and the ops it completed.
type batchRec struct {
	input int
	latMs float64
	ops   float64
}

// serialRun runs batches back to back until the budget is spent and at
// least min of them are done, appending one record per batch to recs.
func serialRun(budget time.Duration, min int, batch batchFn, recs []batchRec) ([]batchRec, error) {
	start := time.Now()
	prev := start
	for n := 0; n < min || prev.Sub(start) < budget; n++ {
		input, ops, err := batch()
		if err != nil {
			return recs, err
		}
		now := time.Now()
		recs = append(recs, batchRec{input, float64(now.Sub(prev)) / 1e6, ops})
		prev = now
	}
	return recs, nil
}

// floors reduces a serial run to its estimate. Each input's time is the
// fastest of its repeats; latency_p50 and latency_p90 are the median and
// the 90th percentile across inputs of those floors (how long the median
// and the slow scenario take on an undisturbed machine; a workload with one
// input reads the same for both), and throughput is the ops of one pass
// over the inputs divided by the sum of their floors. What a floor leaves
// out — a collection that does not hit every repeat — stays visible in
// alloc_bytes_per_op and in the per-batch median and spread reported as
// bench.* diagnostics.
func floors(recs []batchRec) estimate {
	inputs := 0
	for _, r := range recs {
		inputs = max(inputs, r.input+1)
	}
	floor := make([]batchRec, inputs)
	rate := make([]float64, len(recs))
	lat := make([]float64, len(recs))
	for i, r := range recs {
		if f := &floor[r.input]; f.latMs == 0 || r.latMs < f.latMs {
			*f = r
		}
		rate[i], lat[i] = r.ops/r.latMs*1e3, r.latMs
	}
	var ops, ms float64
	times := make([]float64, inputs)
	for i, f := range floor {
		ops += f.ops
		ms += f.latMs
		times[i] = f.latMs
	}
	if ms == 0 {
		return estimate{}
	}
	sort.Float64s(times)
	sort.Float64s(rate)
	sort.Float64s(lat)
	return estimate{
		opsPerS:   ops / ms * 1e3,
		p50ms:     quantile(times, 0.5),
		p90ms:     quantile(times, 0.9),
		opsMedian: quantile(rate, 0.5),
		opsIQRPct: iqrPct(rate),
		p50IQRPct: iqrPct(lat),
	}
}

// iqrPct is the inter-quartile range of sorted as a percentage of its median.
func iqrPct(sorted []float64) float64 {
	m := quantile(sorted, 0.5)
	if m <= 0 {
		return 0
	}
	return 100 * (quantile(sorted, 0.75) - quantile(sorted, 0.25)) / m
}

// sample is one completed serve exchange, packed so a million of them stay
// under 10 MB of pointer-free memory.
type sample struct {
	doneUs uint32 // completion time, microseconds after the phase start
	latNs  uint32 // round-trip latency, nanoseconds (saturating at ~4.3 s)
}

// serveWindow is the slice length of the serve workloads: completion-time
// windows long enough to hold hundreds of flush intervals and at least 400
// decisions at the sparse workload's ~1.6 k/s.
const serveWindow = 250 * time.Millisecond

// windowSlices buckets per-worker samples into completion-time windows
// and returns one sliceStat per full window.
func windowSlices(perWorker [][]sample, phase time.Duration) []sliceStat {
	n := int(phase / serveWindow)
	if n < 1 {
		n = 1
	}
	winUs := uint32(serveWindow / time.Microsecond)
	if phase < serveWindow {
		winUs = uint32(phase / time.Microsecond)
	}
	lat := make([][]float64, n)
	for _, ws := range perWorker {
		for _, s := range ws {
			if w := int(s.doneUs / winUs); w < n {
				lat[w] = append(lat[w], float64(s.latNs)/1e6)
			}
		}
	}
	out := make([]sliceStat, 0, n)
	for _, l := range lat {
		if len(l) == 0 {
			continue
		}
		out = append(out, sliceOf(l, float64(len(l)), time.Duration(winUs)*time.Microsecond))
	}
	return out
}
