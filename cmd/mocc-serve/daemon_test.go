package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"mocc"
	"mocc/transport"
)

// tinyModel trains the smallest schedule the trainer accepts — the daemon
// tests exercise plumbing, not model quality.
func tinyModel(t *testing.T) *mocc.Model {
	t.Helper()
	opts := mocc.QuickTraining()
	opts.BootstrapIters = 1
	opts.BootstrapCycles = 1
	opts.TraverseCycles = 0
	opts.RolloutSteps = 64
	opts.EpisodeLen = 32
	opts.Workers = 1
	m, err := mocc.TrainModel(opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDaemonShutdownOrdering runs a complete in-process daemon — UDP rate
// server, metrics HTTP server, stats ticker, canary, state snapshots —
// drives real flows through it, scrapes the endpoints, and then asserts
// the teardown happens in strict dependency order with no goroutine
// leaking past shutdown.
func TestDaemonShutdownOrdering(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	model := tinyModel(t)
	before := runtime.NumGoroutine()

	statePath := filepath.Join(t.TempDir(), "daemon.state")
	cfg := daemonConfig{
		addr:        "127.0.0.1:0",
		metricsAddr: "127.0.0.1:0",
		opts: mocc.ServingOptions{
			Deadline: 25 * time.Millisecond,
			IdleTTL:  time.Minute,
			Canary:   &mocc.CanaryConfig{Window: 200 * time.Millisecond},
		},
		statePath: statePath,
		statsEach: 5 * time.Millisecond, // exercise the ticker during the run
		logf:      func(string, ...any) {},
	}
	d, err := newDaemon(model, 0, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.start()
	serveDone := make(chan struct{})
	go func() {
		d.serve()
		close(serveDone)
	}()

	// Drive real flows through the UDP path.
	conn, err := transport.DialServe(d.srv.Addr(), transport.ServeConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	flow := conn.Flow(7, mocc.ThroughputPreference, transport.FailoverConfig{Timeout: time.Second})
	for i := 0; i < 20; i++ {
		if _, err := flow.Report(mocc.Status{
			Duration: 20 * time.Millisecond, PacketsSent: 100, PacketsAcked: 95,
			PacketsLost: 5, AvgRTT: 30 * time.Millisecond, MinRTT: 20 * time.Millisecond,
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := flow.Stats(); st.Served == 0 {
		t.Fatalf("daemon served nothing: %+v", st)
	}

	// Scrape the exposition endpoints while flows are live.
	base := "http://" + d.webLis.Addr().String()
	metrics := httpGet(t, base+"/metrics", http.StatusOK)
	for _, series := range []string{
		"mocc_serve_reports_total", "mocc_serve_epoch",
		"mocc_daemon_report_datagrams_total", "mocc_daemon_replies_total", "mocc_daemon_reply_datagrams_total", "mocc_fleet_apps",
		"mocc_serve_decision_latency_seconds_count",
	} {
		if !strings.Contains(metrics, series) {
			t.Errorf("/metrics missing %s", series)
		}
	}
	// One flow reporting in turn never shares a datagram: each of its 20
	// reports arrived as its own, and the series reads the server's counter.
	n := d.srv.Stats().ReportDatagrams
	if line := fmt.Sprintf("\nmocc_daemon_report_datagrams_total %d\n", n); n < 20 || !strings.Contains(metrics, line) {
		t.Errorf("report datagrams %d (want >= 20) not scraped as %q", n, strings.TrimSpace(line))
	}
	if hz := httpGet(t, base+"/healthz", http.StatusOK); !strings.Contains(hz, `"status": "ok"`) {
		t.Errorf("healthz: %s", hz)
	}
	conn.Close()

	d.shutdown()
	select {
	case <-serveDone:
	case <-time.After(5 * time.Second):
		t.Fatal("serve loop still running after shutdown")
	}
	want := []string{"background", "metrics-http", "rate-server", "library", "state"}
	got := d.shutdownTrace()
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("teardown order %v, want %v", got, want)
	}
	d.shutdown() // idempotent
	if again := d.shutdownTrace(); len(again) != len(want) {
		t.Fatalf("second shutdown re-ran teardown: %v", again)
	}

	// The metrics port must be closed, the state snapshot written, and the
	// daemon's goroutines gone (settling briefly for runtime bookkeeping).
	if c, err := net.Dial("tcp", d.webLis.Addr().String()); err == nil {
		c.Close()
		t.Error("metrics listener still accepting after shutdown")
	}
	if _, err := os.Stat(statePath); err != nil {
		t.Errorf("no shutdown state snapshot: %v", err)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(20 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before+2 {
		t.Errorf("goroutines leaked past shutdown: %d before, %d after", before, n)
	}
}

func httpGet(t *testing.T, url string, wantCode int) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantCode {
		t.Fatalf("GET %s: status %d (want %d): %s", url, resp.StatusCode, wantCode, body)
	}
	return string(body)
}
