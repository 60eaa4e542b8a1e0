package main

// Load-generator mode against a mocc-serve daemon (-serve-addr): drive N
// simulated apps over one shared UDP socket, each sending report datagrams
// as fast as the daemon answers, and print the sustained reports/sec plus
// per-report decision-latency percentiles. One socket carries all flows
// (10k apps would exhaust file descriptors otherwise); transport.ServeConn
// demuxes rate replies to the per-app flows, and each flow's
// transport.ServeFlow rides out daemon overload (shed answers keep the
// previous rate) and daemon death (local AIMD fallback with backoff-probed
// resync), so a daemon restart mid-run shows up in the fallback/resync
// counters instead of as client errors.

import (
	"fmt"
	"io"
	"math/rand"
	"sync"
	"time"

	"mocc"
	"mocc/internal/obs"
	"mocc/transport"
)

// serveGenConfig parameterises one load-generation run.
type serveGenConfig struct {
	Addr     string
	Apps     int
	Duration time.Duration
	Seed     int64
}

// runServeGen executes the load generation and prints the summary table.
func runServeGen(cfg serveGenConfig, out io.Writer) error {
	if cfg.Apps <= 0 {
		return fmt.Errorf("serve-gen: need -apps >= 1, got %d", cfg.Apps)
	}
	conn, err := transport.DialServe(cfg.Addr, transport.ServeConnConfig{})
	if err != nil {
		return fmt.Errorf("serve-gen: %w", err)
	}
	defer conn.Close()

	// One lock-free shared histogram replaces per-flow sample slices: all
	// flows observe concurrently, and the percentiles come from the exact
	// bucketing the daemon's mocc_serve_decision_latency_seconds series
	// uses, so client- and server-side latency tables line up.
	hist := obs.NewRegistry().Histogram("mocc_client_report_latency_seconds",
		"Daemon-served decision latency.", 1e-9)
	stats := make([]transport.ServeFlowStats, cfg.Apps)
	deadline := time.Now().Add(cfg.Duration)
	var wg sync.WaitGroup
	for a := 0; a < cfg.Apps; a++ {
		wg.Add(1)
		go func(flow int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(flow)))
			w := randomPref(rng)
			sf := conn.Flow(uint64(flow), w, transport.FailoverConfig{
				Timeout:     500 * time.Millisecond,
				Retries:     0,
				BackoffBase: 100 * time.Millisecond,
				BackoffMax:  time.Second,
				Seed:        cfg.Seed,
			})
			var served int64 // Served before this Report: the flow is ours alone
			for time.Now().Before(deadline) {
				status := syntheticStatus(rng)
				start := time.Now()
				if _, err := sf.Report(status); err != nil {
					break // ServeConn closed underneath us
				}
				st := sf.Stats()
				if st.Served > served {
					// Answered by the daemon with a usable rate: that
					// round trip is a decision latency sample.
					hist.Observe(uint64(time.Since(start)))
				} else if st.FallbackActive {
					// Local fallback decisions return instantly; pace them
					// like a monitor interval instead of busy-spinning the
					// load generator while the daemon is unreachable.
					time.Sleep(time.Millisecond)
				}
				served = st.Served
			}
			stats[flow] = sf.Stats()
		}(a)
	}
	wg.Wait()
	return writeServeGenTable(out, cfg, hist.Snapshot(), stats)
}

// randomPref draws a normalized preference vector.
func randomPref(rng *rand.Rand) mocc.Weights {
	a, b, c := rng.Float64()+0.05, rng.Float64()+0.05, rng.Float64()+0.05
	s := a + b + c
	return mocc.Weights{Thr: a / s, Lat: b / s, Loss: c / s}
}

// syntheticStatus fabricates one plausible monitor interval: a 40ms window
// with mild jitter in delivery and loss, enough to exercise the history and
// keep decisions flowing. Counts are whole packets and acked is derived as
// sent − lost, so Acked+Lost ≤ Sent holds exactly; fractional float counts
// violate it by one ulp in ~0.1 % of draws, and the daemon refuses those.
func syntheticStatus(rng *rand.Rand) mocc.Status {
	sent := 40 + rng.Intn(21)
	lost := 0
	switch p := rng.Intn(100); {
	case p < 3:
		lost = 2
	case p < 23:
		lost = 1
	}
	return mocc.Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  float64(sent),
		PacketsAcked: float64(sent - lost),
		PacketsLost:  float64(lost),
		AvgRTT:       time.Duration(40+rng.Float64()*15) * time.Millisecond,
		MinRTT:       40 * time.Millisecond,
	}
}

// writeServeGenTable prints the run summary from the shared latency
// histogram snapshot and the per-flow client counters.
func writeServeGenTable(out io.Writer, cfg serveGenConfig, lat obs.HistSnapshot, stats []transport.ServeFlowStats) error {
	pct := func(p float64) time.Duration { return time.Duration(lat.Quantile(p)) }
	var agg transport.ServeFlowStats
	for _, st := range stats {
		agg.Served += st.Served
		agg.Shed += st.Shed
		agg.Timeouts += st.Timeouts
		agg.Retries += st.Retries
		agg.Fallbacks += st.Fallbacks
		agg.FallbackReports += st.FallbackReports
		agg.Resyncs += st.Resyncs
		if st.Epoch > agg.Epoch {
			agg.Epoch = st.Epoch
		}
	}
	rps := float64(agg.Served) / cfg.Duration.Seconds()
	_, err := fmt.Fprintf(out,
		"== mocc-serve load generation ==\n"+
			"target          %s\n"+
			"apps            %d\n"+
			"duration        %s\n"+
			"reports served  %d\n"+
			"shed            %d\n"+
			"timeouts        %d (retries %d)\n"+
			"fallbacks       %d (local reports %d, resyncs %d)\n"+
			"reports/sec     %.0f\n"+
			"latency p50     %s\n"+
			"latency p90     %s\n"+
			"latency p99     %s\n"+
			"latency max     %s\n"+
			"model epoch     %d\n",
		cfg.Addr, cfg.Apps, cfg.Duration, agg.Served, agg.Shed,
		agg.Timeouts, agg.Retries,
		agg.Fallbacks, agg.FallbackReports, agg.Resyncs,
		rps, pct(0.50), pct(0.90), pct(0.99), pct(1.0), agg.Epoch)
	return err
}
