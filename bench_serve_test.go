// Serving-engine benchmarks: the coalesced batched-inference path
// (WithServing) against the per-call single-sample path on the same
// workload, at small and fleet-scale app counts. For measuring while
// working on the engine; `go run ./bench -workload serve-fleet` is the
// end-to-end number.
package mocc_test

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"mocc"
)

// Serving-benchmark model: trained once, outside any timed region.
var (
	serveOnce sync.Once
	serveMod  *mocc.Model
	serveErr  error
)

func servingModel(b *testing.B) *mocc.Model {
	b.Helper()
	serveOnce.Do(func() {
		opts := mocc.QuickTraining()
		opts.Omega = 3
		opts.BootstrapIters = 4
		opts.BootstrapCycles = 1
		opts.TraverseCycles = 0
		serveMod, serveErr = mocc.TrainModel(opts)
	})
	if serveErr != nil {
		b.Fatalf("training model: %v", serveErr)
	}
	return serveMod
}

// driveReports registers g apps on lib and drives b.N Report calls per app
// from a bounded worker pool, reporting ns/report (per-decision latency
// cost) and reports/s (aggregate sustained throughput).
//
// Each worker owns a disjoint strided subset of the fleet and cycles
// through it round-robin, so consecutive reports always come from
// different apps — the access pattern of a real fleet, where 10k paced
// flows interleave and no app ever reports twice back-to-back. (One
// goroutine per app hammering Report in a tight loop would instead let
// the scheduler run thousands of consecutive same-app reports per
// preemption slice, granting whichever path is under test an L1-warm
// per-app state that no serving deployment ever sees.) Both the batched
// engine and the single-sample baseline run this identical driver.
func driveReports(b *testing.B, lib *mocc.Library, g int) {
	b.Helper()
	apps := make([]*mocc.App, g)
	for i := range apps {
		app, err := lib.Register(mocc.BalancedPreference)
		if err != nil {
			b.Fatal(err)
		}
		apps[i] = app
	}
	defer func() {
		for _, app := range apps {
			_ = app.Unregister()
		}
	}()
	st := mocc.Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  50,
		PacketsAcked: 48,
		PacketsLost:  2,
		AvgRTT:       45 * time.Millisecond,
		MinRTT:       40 * time.Millisecond,
	}
	// In-flight concurrency: one default micro-batch's worth. Enough to
	// fill every coalesced batch, without modeling every paced flow as its
	// own always-runnable goroutine (a fleet pacing 25 reports/s per app
	// keeps far fewer reports in flight than apps registered, and run-queue
	// depth is itself a per-report cost on the serving path).
	workers := g
	if workers > 64 {
		workers = 64
	}
	// Model training and 10k registrations leave a heap of garbage behind;
	// collect it now so the first timed batches don't pay for it.
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < b.N; i++ {
				for j := w; j < len(apps); j += workers {
					if _, err := apps[j].Report(st); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	b.StopTimer()
	total := float64(b.N) * float64(g)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/report")
	b.ReportMetric(total/b.Elapsed().Seconds(), "reports/s")
}

// BenchmarkServeReport measures the serving engine: g concurrent apps
// whose Report calls coalesce into batched forward passes (one parameter
// lock and one cache-warm weight walk per batch instead of per decision).
// The win over BenchmarkServeReportSingleSample grows with concurrency —
// at fleet scale the shards run near-full batches.
func BenchmarkServeReport(b *testing.B) {
	for _, g := range []int{64, 10000} {
		b.Run(fmt.Sprintf("apps=%d", g), func(b *testing.B) {
			lib, err := mocc.New(servingModel(b), mocc.WithServing(mocc.ServingOptions{}))
			if err != nil {
				b.Fatal(err)
			}
			defer lib.Close()
			driveReports(b, lib, g)
		})
	}
}

// BenchmarkServeReportSingleSample is the per-call baseline: the same
// workload on a plain library, every Report running its own single-sample
// forward pass under its own parameter-lock acquisition.
func BenchmarkServeReportSingleSample(b *testing.B) {
	for _, g := range []int{64, 10000} {
		b.Run(fmt.Sprintf("apps=%d", g), func(b *testing.B) {
			lib, err := mocc.New(servingModel(b))
			if err != nil {
				b.Fatal(err)
			}
			defer lib.Close()
			driveReports(b, lib, g)
		})
	}
}

// BenchmarkObsOverhead pins the observability tax on the serving hot path:
// the identical fleet workload through the batched engine with full
// observability attached (lock-free counters, latency histogram, event
// log, per-app flight recorders) versus with it disabled. The bar: 0
// allocs/report in both modes and under 5% ns/report regression when
// enabled.
func BenchmarkObsOverhead(b *testing.B) {
	modes := []struct {
		name string
		opts []mocc.Option
	}{
		{"disabled", nil},
		{"enabled", []mocc.Option{mocc.WithObservability(mocc.ObservabilityOptions{
			Metrics: mocc.NewMetrics(),
		})}},
	}
	for _, mode := range modes {
		b.Run(mode.name, func(b *testing.B) {
			opts := append([]mocc.Option{mocc.WithServing(mocc.ServingOptions{})}, mode.opts...)
			lib, err := mocc.New(servingModel(b), opts...)
			if err != nil {
				b.Fatal(err)
			}
			defer lib.Close()
			driveReports(b, lib, 64)
		})
	}
}

// BenchmarkServeReportOverload measures the shedding path under sustained
// 2x overload: 128 always-runnable reporters against a single shard whose
// queue bound admits half that (MaxQueue 64) with a 2ms decision deadline.
// Beyond the usual ns/report it records the shed fraction and the p99
// end-to-end decision latency — the resilience claim is that overload
// degrades to bounded-latency NaN answers ("keep your rate"), never to an
// unbounded queue.
func BenchmarkServeReportOverload(b *testing.B) {
	lib, err := mocc.New(servingModel(b), mocc.WithServing(mocc.ServingOptions{
		Shards:   1,
		MaxBatch: 16,
		MaxQueue: 64,
		Deadline: 2 * time.Millisecond,
	}))
	if err != nil {
		b.Fatal(err)
	}
	defer lib.Close()

	const apps = 256
	handles := make([]*mocc.App, apps)
	for i := range handles {
		if handles[i], err = lib.Register(mocc.BalancedPreference); err != nil {
			b.Fatal(err)
		}
	}
	st := mocc.Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  50,
		PacketsAcked: 48,
		PacketsLost:  2,
		AvgRTT:       45 * time.Millisecond,
		MinRTT:       40 * time.Millisecond,
	}
	const workers = 128
	lat := make([][]time.Duration, workers)
	runtime.GC()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			samples := make([]time.Duration, 0, b.N*apps/workers+1)
			for i := 0; i < b.N; i++ {
				for j := w; j < len(handles); j += workers {
					start := time.Now()
					if _, err := handles[j].Report(st); err != nil {
						b.Error(err)
						return
					}
					samples = append(samples, time.Since(start))
				}
			}
			lat[w] = samples
		}(w)
	}
	wg.Wait()
	b.StopTimer()

	var all []time.Duration
	for _, s := range lat {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	stats := lib.ServingStats()
	if decisions := stats.Reports + stats.Shed(); decisions > 0 {
		b.ReportMetric(float64(stats.Shed())/float64(decisions), "shed/report")
	}
	if len(all) > 0 {
		idx := len(all) * 99 / 100
		if idx >= len(all) {
			idx = len(all) - 1
		}
		b.ReportMetric(float64(all[idx]), "p99-ns")
	}
	total := float64(b.N) * float64(apps)
	b.ReportMetric(total/b.Elapsed().Seconds(), "reports/s")
}
