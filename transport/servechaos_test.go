package transport_test

import (
	"math"
	"net"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/datapath"
	"mocc/internal/faults"
	"mocc/transport"
)

// chaosStatus fabricates one plausible monitor interval, varied by round.
func chaosStatus(round int) mocc.Status {
	sent := 40.0 + float64(round%20)
	lost := float64(round % 3)
	return mocc.Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  sent,
		PacketsAcked: sent - lost,
		PacketsLost:  lost,
		AvgRTT:       time.Duration(40+round%15) * time.Millisecond,
		MinRTT:       40 * time.Millisecond,
	}
}

// startRateServer binds a daemon for lib on addr ("127.0.0.1:0" for any
// port) and runs its read loop.
func startRateServer(t testing.TB, lib *mocc.Library, addr string) *transport.RateServer {
	t.Helper()
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		t.Fatal(err)
	}
	srv := transport.NewRateServer(lib, conn)
	go srv.Serve()
	return srv
}

// TestRateServerMalformedDatagrams is the demux-hardening pin: short,
// truncated, wrong-magic and wrong-type datagrams must be counted and
// dropped — never parsed past their bounds, never fatal — and the daemon
// must keep answering well-formed reports afterwards. A datagram whose
// whole report records are followed by a partial or invalid one has those
// records served and counts one Malformed.
func TestRateServerMalformedDatagrams(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()

	raddr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	report := func(flow uint64) []byte {
		p := make([]byte, datapath.WireReportBytes)
		datapath.EncodeReport(p, 1, time.Now().UnixNano(), datapath.WireReport{
			Flow: flow, Thr: 0.4, Lat: 0.3, Loss: 0.3,
			DurationNs: int64(40 * time.Millisecond), Sent: 50, Acked: 50,
			AvgRTTNs: int64(45 * time.Millisecond), MinRTTNs: int64(40 * time.Millisecond),
		})
		return p
	}
	valid := report(7)
	mutate := func(f func(p []byte)) []byte {
		p := append([]byte(nil), valid...)
		f(p)
		return p
	}
	badMagic := mutate(func(p []byte) { p[0] ^= 0xFF })

	cases := []struct {
		name   string
		pkt    []byte
		want   string // "malformed" | "foreign"
		served uint64 // flow of a whole report record ahead of the bad part (0: none)
	}{
		{"one-byte", []byte{datapath.WireMagic}, "malformed", 0},
		{"short-header", valid[:datapath.WireHeaderBytes-1], "malformed", 0},
		{"header-only", valid[:datapath.WireHeaderBytes], "malformed", 0},
		{"truncated-report", valid[:datapath.WireReportBytes-1], "malformed", 0},
		{"wrong-magic", badMagic, "malformed", 0},
		{"garbage", []byte("definitely not a mocc datagram, just bytes"), "malformed", 0},
		{"data-type", mutate(func(p []byte) { p[1] = datapath.WireTypeData }), "foreign", 0},
		{"ack-type", mutate(func(p []byte) { p[1] = datapath.WireTypeAck }), "foreign", 0},
		{"rate-type", mutate(func(p []byte) { p[1] = datapath.WireTypeRate }), "foreign", 0},
		{"report + partial", append(report(8), valid[:40]...), "malformed", 8},
		{"bad second record", append(report(9), badMagic...), "malformed", 9},
	}
	wantMalformed, wantForeign := int64(0), int64(0)
	served := map[uint64]bool{}
	for _, tc := range cases {
		if _, err := conn.Write(tc.pkt); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if tc.want == "malformed" {
			wantMalformed++
		} else {
			wantForeign++
		}
		if tc.served != 0 {
			served[tc.served] = true
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := srv.Stats()
		if st.Malformed == wantMalformed && st.Foreign == wantForeign && st.Replies == int64(len(served)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats = %+v, want malformed %d foreign %d replies %d", st, wantMalformed, wantForeign, len(served))
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The records ahead of the bad parts were answered; then the daemon
	// must still be alive and answering.
	reply := make([]byte, 64*1024)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	for len(served) > 0 {
		n, err := conn.Read(reply)
		if err != nil {
			t.Fatalf("replies to the records ahead of the bad parts: %v (still owed to %v)", err, served)
		}
		for rec := reply[:n]; len(rec) > 0; rec = rec[datapath.WireRateBytes:] {
			seq, _, flow, _, _, ok := datapath.DecodeRate(rec)
			if !ok || seq != 1 || !served[flow] {
				t.Fatalf("bad rate reply (ok=%v seq=%d flow=%d), want one to flows %v", ok, seq, flow, served)
			}
			delete(served, flow)
		}
	}
	if _, err := conn.Write(valid); err != nil {
		t.Fatal(err)
	}
	n, err := conn.Read(reply)
	if err != nil {
		t.Fatalf("no rate reply after malformed storm: %v", err)
	}
	seq, _, flow, rate, _, ok := datapath.DecodeRate(reply[:n])
	if !ok || seq != 1 || flow != 7 {
		t.Fatalf("bad rate reply (ok=%v seq=%d flow=%d)", ok, seq, flow)
	}
	if math.IsNaN(rate) || rate < cc.MinPacingRate || rate > cc.MaxPacingRate {
		t.Fatalf("served rate %v outside the pacing envelope", rate)
	}
	// The reply counter is bumped after the socket write just read.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := srv.Stats(); st.Sessions == 3 && st.Replies == 3 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("sessions=%d replies=%d after valid report, want 3/3", st.Sessions, st.Replies)
		}
	}
}

// TestRateServerInvalidStatusRepliesNaN pins the fail-fast answer to a
// well-formed report whose status the library refuses (acked+lost > sent):
// the daemon replies once with a NaN rate and counts it, so the flow books a
// shed and keeps its learned path — no timeout, no failover to AIMD — and
// the next valid report is served normally.
func TestRateServerInvalidStatusRepliesNaN(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()
	conn, err := transport.DialServe(srv.Addr(), transport.ServeConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	sf := conn.Flow(5, mocc.Weights{Thr: 0.4, Lat: 0.3, Loss: 0.3}, transport.FailoverConfig{
		Timeout: 2 * time.Second, // a silent daemon would show as a timeout, not a hang
	})

	bad := chaosStatus(0)
	bad.PacketsAcked = bad.PacketsSent
	bad.PacketsLost = 1
	rate, err := sf.Report(bad)
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(rate) || rate < cc.MinPacingRate || rate > cc.MaxPacingRate {
		t.Fatalf("rate %v after a refused status left the pacing envelope", rate)
	}
	if st := sf.Stats(); st.Shed != 1 || st.Served != 0 || st.Timeouts != 0 || st.Fallbacks != 0 || st.FallbackActive {
		t.Fatalf("client stats after a refused status: %+v", st)
	}
	// The reply counter is bumped after the socket write the client just
	// answered to, so give it a moment.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if st := srv.Stats(); st.Invalid == 1 && st.Replies == 1 {
			break
		} else if time.Now().After(deadline) {
			t.Fatalf("daemon stats after a refused status: %+v, want invalid 1 replies 1", st)
		}
	}

	if _, err := sf.Report(chaosStatus(1)); err != nil {
		t.Fatal(err)
	}
	if st := sf.Stats(); st.Served != 1 || st.Shed != 1 || st.Timeouts != 0 {
		t.Fatalf("client stats after the following valid report: %+v", st)
	}
}

// TestServeFlowFailoverBlackout pins client failover under a seeded fault
// plan: a blackout window swallows reports mid-run, the flow must degrade to
// its local AIMD controller without a single Report error, keep every
// decided rate inside the pacing envelope, and resync to the daemon when the
// window lifts.
func TestServeFlowFailoverBlackout(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()

	plan := &faults.Plan{
		Seed:     42,
		Blackout: &faults.Blackout{Windows: []faults.Window{{From: 10, To: 18}}},
	}
	var fc *faults.FaultConn
	conn, err := transport.DialServe(srv.Addr(), transport.ServeConnConfig{
		WrapConn: func(inner transport.PacketConn) transport.PacketConn {
			fc = plan.WrapConn(inner)
			return fc
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	sf := conn.Flow(3, mocc.Weights{Thr: 0.4, Lat: 0.3, Loss: 0.3}, transport.FailoverConfig{
		Timeout:     50 * time.Millisecond,
		Retries:     0,
		BackoffBase: 10 * time.Millisecond,
		BackoffMax:  40 * time.Millisecond,
		Seed:        42,
	})
	const rounds = 150
	for round := 0; round < rounds; round++ {
		rate, err := sf.Report(chaosStatus(round))
		if err != nil {
			t.Fatalf("round %d: Report must never error on a swallowed datagram: %v", round, err)
		}
		if math.IsNaN(rate) || rate < cc.MinPacingRate || rate > cc.MaxPacingRate {
			t.Fatalf("round %d: rate %v left the pacing envelope", round, rate)
		}
		time.Sleep(3 * time.Millisecond) // monitor-interval think time, lets probes fire
	}
	st := sf.Stats()
	if st.Reports != rounds {
		t.Fatalf("Reports = %d, want %d", st.Reports, rounds)
	}
	if st.Fallbacks == 0 || st.FallbackReports == 0 {
		t.Fatalf("blackout never triggered failover: %+v", st)
	}
	if st.Resyncs == 0 || st.FallbackActive {
		t.Fatalf("flow never resynced after the blackout lifted: %+v", st)
	}
	if st.Served == 0 {
		t.Fatalf("no decisions served around the blackout: %+v", st)
	}
	if fs := fc.Stats(); fs.ReportsSwallowed == 0 {
		t.Fatalf("plan injected nothing: %+v", fs)
	}
}

// TestDaemonRestartMidLoad is the kill-the-daemon chaos pin: flows under
// load fall back to their local controllers when the daemon dies (zero
// Report errors), and when a daemon restarts on the same port from the
// crash-safe state snapshot, every flow resyncs and observes the restored
// epoch.
func TestDaemonRestartMidLoad(t *testing.T) {
	_, flows := restartMidLoad(t, transport.ServeConnConfig{})
	for i, sf := range flows {
		if st := sf.Stats(); st.Fallbacks == 0 || st.FallbackReports == 0 {
			t.Fatalf("flow %d never degraded: %+v", i, st)
		}
	}
}

// TestServeConnClientSeries pins the mocc_client_* series to the flows'
// own counters: after a daemon killed and restarted mid-load, each
// counter series equals its ServeFlowStats field summed over the flows,
// and mocc_client_malformed_total equals ServeConn.Malformed.
func TestServeConnClientSeries(t *testing.T) {
	m := mocc.NewMetrics()
	conn, flows := restartMidLoad(t, transport.ServeConnConfig{Metrics: m})
	var sum transport.ServeFlowStats
	for _, sf := range flows {
		st := sf.Stats()
		sum.Reports += st.Reports
		sum.Served += st.Served
		sum.Shed += st.Shed
		sum.Timeouts += st.Timeouts
		sum.Retries += st.Retries
		sum.Fallbacks += st.Fallbacks
		sum.FallbackReports += st.FallbackReports
		sum.Resyncs += st.Resyncs
	}
	if sum.Served == 0 || sum.Timeouts == 0 || sum.Fallbacks == 0 || sum.Resyncs == 0 {
		t.Fatalf("restart left a client counter at zero: %+v", sum)
	}

	var page strings.Builder
	m.WritePrometheus(&page)
	scraped := map[string]string{}
	for _, line := range strings.Split(page.String(), "\n") {
		if name, v, ok := strings.Cut(line, " "); ok && !strings.HasPrefix(line, "#") {
			scraped[name] = v
		}
	}
	for name, want := range map[string]int64{
		"mocc_client_reports_total":          sum.Reports,
		"mocc_client_served_total":           sum.Served,
		"mocc_client_shed_total":             sum.Shed,
		"mocc_client_timeouts_total":         sum.Timeouts,
		"mocc_client_retries_total":          sum.Retries,
		"mocc_client_fallbacks_total":        sum.Fallbacks,
		"mocc_client_fallback_reports_total": sum.FallbackReports,
		"mocc_client_resyncs_total":          sum.Resyncs,
		"mocc_client_malformed_total":        conn.Malformed(),
	} {
		if got := scraped[name]; got != strconv.FormatInt(want, 10) {
			t.Errorf("%s = %q, want %d", name, got, want)
		}
	}
}

// restartMidLoad runs four flows on one ServeConn dialed with cfg against
// a daemon, kills the daemon mid-load and restarts it on the same port
// from its crash-safe snapshot. It returns once every flow has failed over
// and resynced to the restored epoch with zero Report errors, and the
// load has stopped.
func restartMidLoad(t *testing.T, cfg transport.ServeConnConfig) (*transport.ServeConn, []*transport.ServeFlow) {
	t.Helper()
	statePath := filepath.Join(t.TempDir(), "serve.state")

	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 2}))
	if _, err := lib.Publish(lib.Model()); err != nil { // epoch 1, so the restore is observable
		t.Fatal(err)
	}
	savedEpoch := lib.Epoch()
	if err := mocc.SaveServingState(statePath, savedEpoch, lib.Model()); err != nil {
		t.Fatal(err)
	}
	srv := startRateServer(t, lib, "127.0.0.1:0")
	addr := srv.Addr()

	conn, err := transport.DialServe(addr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const nflows = 4
	var (
		stop      = make(chan struct{})
		wg        sync.WaitGroup
		reportErr atomic.Int64
		flows     = make([]*transport.ServeFlow, nflows)
	)
	for i := 0; i < nflows; i++ {
		flows[i] = conn.Flow(uint64(i), mocc.Weights{Thr: 0.4, Lat: 0.3, Loss: 0.3},
			transport.FailoverConfig{
				Timeout:     100 * time.Millisecond,
				Retries:     0,
				BackoffBase: 20 * time.Millisecond,
				BackoffMax:  100 * time.Millisecond,
				Seed:        7,
			})
		wg.Add(1)
		go func(sf *transport.ServeFlow) {
			defer wg.Done()
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				rate, err := sf.Report(chaosStatus(round))
				if err != nil {
					reportErr.Add(1)
					return
				}
				if math.IsNaN(rate) || rate < cc.MinPacingRate || rate > cc.MaxPacingRate {
					reportErr.Add(1)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
		}(flows[i])
	}
	waitAll := func(what string, deadline time.Duration, cond func(transport.ServeFlowStats) bool) {
		t.Helper()
		end := time.Now().Add(deadline)
		for {
			n := 0
			for _, sf := range flows {
				if cond(sf.Stats()) {
					n++
				}
			}
			if n == nflows {
				return
			}
			if time.Now().After(end) {
				t.Fatalf("%s: only %d/%d flows (errors %d)", what, n, nflows, reportErr.Load())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}

	// Phase 1: everyone is served by the live daemon.
	waitAll("initial serving", 10*time.Second, func(st transport.ServeFlowStats) bool {
		return st.Served >= 5 && st.Epoch == savedEpoch
	})

	// Phase 2: kill the daemon mid-load. Every flow must degrade to its
	// local controller; the load goroutines keep running with zero errors.
	srv.Close()
	lib.Close() // the "crashed process" takes its library with it
	waitAll("failover after daemon death", 10*time.Second, func(st transport.ServeFlowStats) bool {
		return st.FallbackActive && st.FallbackReports >= 3
	})

	// Phase 3: restart from the crash-safe snapshot on the same port.
	epoch, model, err := mocc.LoadServingState(statePath)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != savedEpoch {
		t.Fatalf("restored epoch %d, want %d", epoch, savedEpoch)
	}
	lib2, err := mocc.New(model, mocc.WithoutAdaptation(),
		mocc.WithServing(mocc.ServingOptions{Shards: 2, InitialEpoch: epoch}))
	if err != nil {
		t.Fatal(err)
	}
	defer lib2.Close()
	srv2 := startRateServer(t, lib2, addr)
	defer srv2.Close()

	// Phase 4: every flow resyncs to the restored daemon and sees the
	// snapshot epoch in its rate replies.
	waitAll("resync after restart", 15*time.Second, func(st transport.ServeFlowStats) bool {
		return st.Resyncs >= 1 && !st.FallbackActive && st.Epoch == savedEpoch
	})

	close(stop)
	wg.Wait()
	if n := reportErr.Load(); n != 0 {
		t.Fatalf("%d Report errors across the daemon restart, want 0", n)
	}
	if lib2.Epoch() != savedEpoch {
		t.Fatalf("restarted daemon epoch %d, want %d", lib2.Epoch(), savedEpoch)
	}
	return conn, flows
}
