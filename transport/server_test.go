package transport_test

import (
	"bytes"
	"errors"
	"math"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocc"
	"mocc/internal/datapath"
	"mocc/transport"
)

// dialRateServer starts a daemon over lib and connects a client socket to
// it; both are torn down with the test.
func dialRateServer(t *testing.T, lib *mocc.Library) (*transport.RateServer, *transport.ServeConn) {
	t.Helper()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	conn, err := transport.DialServe(srv.Addr(), transport.ServeConnConfig{})
	if err != nil {
		srv.Close()
		t.Fatal(err)
	}
	t.Cleanup(func() {
		conn.Close()
		srv.Close()
	})
	return srv, conn
}

// patient is a failover configuration under which no reply of a healthy
// daemon times out, so every report is decided exactly once by the daemon.
var patient = transport.FailoverConfig{Timeout: 5 * time.Second}

// TestRateServerMatchesShadowLibrary pins the daemon end to end: 64 flows
// reporting concurrently over loopback, each switching preference halfway,
// are served rate sequences bit-equal to a non-serving Library fed the same
// statuses and the same weight change.
func TestRateServerMatchesShadowLibrary(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 2}))
	defer lib.Close()
	_, conn := dialRateServer(t, lib)

	const flows, reports, switchAt = 64, 50, 25
	prefs := []mocc.Weights{mocc.ThroughputPreference, mocc.LatencyPreference, mocc.RTCPreference, mocc.BalancedPreference}
	retuned := mocc.Weights{Thr: 0.2, Lat: 0.6, Loss: 0.2}
	served := make([][]float64, flows)
	var wg sync.WaitGroup
	for i := 0; i < flows; i++ {
		sf := conn.Flow(uint64(i), prefs[i%len(prefs)], patient)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for r := 0; r < reports; r++ {
				if r == switchAt {
					sf.SetWeights(retuned)
				}
				rate, err := sf.Report(chaosStatus(i + r))
				if err != nil {
					t.Errorf("flow %d report %d: %v", i, r, err)
					return
				}
				served[i] = append(served[i], rate)
			}
			if st := sf.Stats(); st.Served != reports {
				t.Errorf("flow %d: %+v, want every report served", i, st)
			}
		}(i)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	shadow := chaosLibrary(t)
	for i := 0; i < flows; i++ {
		app, err := shadow.Register(prefs[i%len(prefs)])
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < reports; r++ {
			if r == switchAt {
				if err := app.SetWeights(retuned); err != nil {
					t.Fatal(err)
				}
			}
			want, err := app.Report(chaosStatus(i + r))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(served[i][r]) != math.Float64bits(want) {
				t.Fatalf("flow %d report %d: served %v, shadow library %v", i, r, served[i][r], want)
			}
		}
	}
}

// TestRateServerFlowOrderAndDrop pins the per-flow slots: while one report
// of a flow is in flight (held in the decision's completion on the shard),
// a second waits and a third is dropped and counted; on release the two are
// answered in report order and the third never is.
func TestRateServerFlowOrderAndDrop(t *testing.T) {
	hold := make(chan struct{})
	var release sync.Once
	var held atomic.Bool
	gate := func(act float64) float64 {
		if held.CompareAndSwap(false, true) {
			<-hold
		}
		return act
	}
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}), mocc.WithInferenceFault(gate))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()
	defer release.Do(func() { close(hold) })

	raddr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	pkt := make([]byte, datapath.WireReportBytes)
	send := func(seq uint64) {
		t.Helper()
		st := chaosStatus(int(seq))
		datapath.EncodeReport(pkt, seq, time.Now().UnixNano(), datapath.WireReport{
			Flow: 9, Thr: 0.4, Lat: 0.3, Loss: 0.3,
			DurationNs: int64(st.Duration), Sent: st.PacketsSent, Acked: st.PacketsAcked, Lost: st.PacketsLost,
			AvgRTTNs: int64(st.AvgRTT), MinRTTNs: int64(st.MinRTT),
		})
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s: %+v", what, srv.Stats())
			}
		}
	}

	send(1)
	waitFor("the first decision to be held", held.Load)
	send(2)
	send(3)
	waitFor("the third report to be dropped", func() bool { return srv.Stats().Dropped == 1 })
	release.Do(func() { close(hold) })

	in := make([]byte, 64*1024)
	for _, want := range []uint64{1, 2} {
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		n, err := conn.Read(in)
		if err != nil {
			t.Fatalf("waiting for the reply to report %d: %v", want, err)
		}
		if seq, _, flow, _, _, ok := datapath.DecodeRate(in[:n]); !ok || seq != want || flow != 9 {
			t.Fatalf("reply (ok %v seq %d flow %d), want seq %d of flow 9", ok, seq, flow, want)
		}
	}
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var nerr net.Error
	if n, err := conn.Read(in); !errors.As(err, &nerr) || !nerr.Timeout() {
		t.Fatalf("a third reply arrived (%d bytes, err %v), want the dropped report unanswered", n, err)
	}
	if st := srv.Stats(); st.Replies != 2 || st.Dropped != 1 || st.Sessions != 1 {
		t.Fatalf("stats %+v, want 2 replies, 1 dropped, 1 session", st)
	}
}

// TestRateServerGoroutinesFlatInFlows pins the session table: registering
// 1024 flows starts no goroutine beyond what serving the first one did.
func TestRateServerGoroutinesFlatInFlows(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 2}))
	defer lib.Close()
	srv, conn := dialRateServer(t, lib)

	report := func(flow int) {
		t.Helper()
		sf := conn.Flow(uint64(flow), mocc.BalancedPreference, patient)
		if _, err := sf.Report(chaosStatus(flow)); err != nil {
			t.Fatal(err)
		}
	}
	report(0)
	one := runtime.NumGoroutine()
	for flow := 1; flow < 1024; flow++ {
		report(flow)
	}
	if n := srv.Stats().Sessions; n != 1024 {
		t.Fatalf("Sessions = %d, want 1024", n)
	}
	if many := runtime.NumGoroutine(); many > one {
		t.Fatalf("%d goroutines with 1024 flows registered, %d with one", many, one)
	}
}

// TestServeFlowReportAllocFree pins the steady state of a served decision
// at zero allocations across both ends of the socket: client encode, write
// and reply wait; daemon read, demux, batched decision, guard and reply.
func TestServeFlowReportAllocFree(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}))
	defer lib.Close()
	_, conn := dialRateServer(t, lib)
	sf := conn.Flow(1, mocc.BalancedPreference, patient)
	st := chaosStatus(3)
	report := func() {
		if _, err := sf.Report(st); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		report() // registration, first-use buffers, the shard's inference view
	}
	if allocs := testing.AllocsPerRun(1000, report); allocs != 0 {
		t.Errorf("ServeFlow.Report round trip: %v allocs/op, want 0", allocs)
	}
	if s := sf.Stats(); s.Served != s.Reports {
		t.Fatalf("not every report was served: %+v", s)
	}
}

// dialRaw connects a plain UDP socket to srv: a client that sees reply
// datagrams exactly as they come off the wire.
func dialRaw(t *testing.T, srv *transport.RateServer) *net.UDPConn {
	t.Helper()
	raddr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// reportNanos is the send timestamp encodeReport stamps on report seq.
func reportNanos(seq uint64) int64 { return int64(seq) * 1e6 }

// encodeReport fills pkt with report seq of flow: preference (0.4, 0.3,
// 0.3) and the interval chaosStatus(seq).
func encodeReport(pkt []byte, flow, seq uint64) {
	st := chaosStatus(int(seq))
	datapath.EncodeReport(pkt, seq, reportNanos(seq), datapath.WireReport{
		Flow: flow, Thr: 0.4, Lat: 0.3, Loss: 0.3,
		DurationNs: int64(st.Duration), Sent: st.PacketsSent, Acked: st.PacketsAcked, Lost: st.PacketsLost,
		AvgRTTNs: int64(st.AvgRTT), MinRTTNs: int64(st.MinRTT),
	})
}

// TestRateServerCoalescesBatchReplies pins reply coalescing: with the only
// shard held in a decision's completion, 80 flows on one socket report
// once each; on release the shard serves the backlog in batches, and the
// daemon answers each batch with datagrams of whole rate records — at most
// 34 per datagram, so a reply fits a 1500-byte IPv6 packet — fewer
// datagrams than records, and every flow gets exactly one record, carrying
// its own report's seq.
func TestRateServerCoalescesBatchReplies(t *testing.T) {
	hold := make(chan struct{})
	var release sync.Once
	var held atomic.Bool
	gate := func(act float64) float64 {
		if held.CompareAndSwap(false, true) {
			<-hold
		}
		return act
	}
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}), mocc.WithInferenceFault(gate))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()
	defer release.Do(func() { close(hold) })
	conn := dialRaw(t, srv)

	const flows, maxRecords = 80, 34
	seqOf := func(flow uint64) uint64 { return 1000 + flow }
	pkt := make([]byte, datapath.WireReportBytes)
	for flow := uint64(1); flow <= flows; flow++ {
		encodeReport(pkt, flow, seqOf(flow))
		if _, err := conn.Write(pkt); err != nil {
			t.Fatal(err)
		}
		for flow == 1 && !held.Load() {
			time.Sleep(time.Millisecond)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); lib.ServingStats().Queued < flows-1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("backlog never queued: %+v %+v", lib.ServingStats(), srv.Stats())
		}
	}
	release.Do(func() { close(hold) })

	got := map[uint64]int{}
	var datagrams, records, largest int
	in := make([]byte, 64*1024)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for records < flows {
		n, err := conn.Read(in)
		if err != nil {
			t.Fatalf("after %d records in %d datagrams: %v", records, datagrams, err)
		}
		if n%datapath.WireRateBytes != 0 || n/datapath.WireRateBytes > maxRecords {
			t.Fatalf("reply datagram of %d bytes, want 1..%d whole %d-byte records", n, maxRecords, datapath.WireRateBytes)
		}
		datagrams++
		largest = max(largest, n/datapath.WireRateBytes)
		for rec := in[:n]; len(rec) > 0; rec = rec[datapath.WireRateBytes:] {
			seq, _, flow, _, _, ok := datapath.DecodeRate(rec)
			if !ok || seq != seqOf(flow) {
				t.Fatalf("record (ok %v, flow %d, seq %d), want seq %d", ok, flow, seq, seqOf(flow))
			}
			got[flow]++
			records++
		}
	}
	for flow := uint64(1); flow <= flows; flow++ {
		if got[flow] != 1 {
			t.Fatalf("flow %d got %d records, want 1", flow, got[flow])
		}
	}
	if datagrams >= records || largest != maxRecords {
		t.Fatalf("%d records in %d datagrams, largest %d; want fewer datagrams, a full one of %d", records, datagrams, largest, maxRecords)
	}
	// The counters are bumped after each write the client just read.
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		st := srv.Stats()
		if st.Replies == flows && st.ReplyDatagrams == int64(datagrams) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("stats %+v, want %d replies in %d datagrams", st, flows, datagrams)
		}
	}
}

// TestRateServerLoneReplyIsOneRecord pins the other end: one report on an
// idle daemon is answered at once by a single-record datagram, byte for
// byte what EncodeRate writes for the rate a non-serving library decides.
func TestRateServerLoneReplyIsOneRecord(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()
	conn := dialRaw(t, srv)

	const flow, seq = 5, 17
	pkt := make([]byte, datapath.WireReportBytes)
	encodeReport(pkt, flow, seq)
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	in := make([]byte, 64*1024)
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	n, err := conn.Read(in)
	if err != nil {
		t.Fatal(err)
	}

	shadow, err := chaosLibrary(t).Register(mocc.Weights{Thr: 0.4, Lat: 0.3, Loss: 0.3})
	if err != nil {
		t.Fatal(err)
	}
	rate, err := shadow.Report(chaosStatus(seq))
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, datapath.WireRateBytes)
	datapath.EncodeRate(want, seq, reportNanos(seq), flow, rate, lib.Epoch())
	if !bytes.Equal(in[:n], want) {
		t.Fatalf("reply %x, want %x", in[:n], want)
	}
}

// TestRateServerCoalescedAllocFree pins the daemon's coalesced steady state
// at zero allocations: each run, 8 flows on one raw socket report at once
// and wait for all 8 records, so the shard serves them in shared batches
// and the daemon answers with multi-record datagrams from recycled buffers.
func TestRateServerCoalescedAllocFree(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 1}))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()
	conn := dialRaw(t, srv)

	const flows = 8
	pkt := make([]byte, datapath.WireReportBytes)
	in := make([]byte, 64*1024)
	seq := uint64(0)
	round := func() {
		for flow := uint64(1); flow <= flows; flow++ {
			seq++
			encodeReport(pkt, flow, seq)
			if _, err := conn.Write(pkt); err != nil {
				t.Fatal(err)
			}
		}
		for records := 0; records < flows; {
			n, err := conn.Read(in)
			if err != nil {
				t.Fatal(err)
			}
			records += n / datapath.WireRateBytes
		}
	}
	conn.SetReadDeadline(time.Now().Add(time.Minute))
	for i := 0; i < 100; i++ {
		round() // registration, first-use buffers, the shard's inference view
	}
	before := srv.Stats()
	if allocs := testing.AllocsPerRun(500, round); allocs != 0 {
		t.Errorf("8-flow round: %v allocs/op, want 0", allocs)
	}
	after := srv.Stats()
	replies, datagrams := after.Replies-before.Replies, after.ReplyDatagrams-before.ReplyDatagrams
	if datagrams >= replies {
		t.Fatalf("%d replies in %d datagrams: the measured rounds never coalesced", replies, datagrams)
	}
}

// TestRateServerWalksReportRecords pins the daemon's record walk: 14 flows'
// reports in one datagram, the most a ServeConn sends in one, are each
// decided and answered, bit-equal to a non-serving library fed the same
// statuses, and count one report datagram; a second round of the same
// flows finds their sessions.
func TestRateServerWalksReportRecords(t *testing.T) {
	lib := chaosLibrary(t, mocc.WithServing(mocc.ServingOptions{Shards: 2}))
	defer lib.Close()
	srv := startRateServer(t, lib, "127.0.0.1:0")
	defer srv.Close()
	conn := dialRaw(t, srv)

	const flows, rounds = 14, 2
	shadow := chaosLibrary(t)
	apps := make([]*mocc.App, flows+1) // by flow id, 1..flows
	for flow := 1; flow <= flows; flow++ {
		app, err := shadow.Register(mocc.Weights{Thr: 0.4, Lat: 0.3, Loss: 0.3})
		if err != nil {
			t.Fatal(err)
		}
		apps[flow] = app
	}
	dgram := make([]byte, flows*datapath.WireReportBytes)
	in := make([]byte, 64*1024)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	for r := 0; r < rounds; r++ {
		// Report seq = 100·round + flow carries the interval chaosStatus(seq).
		seqOf := func(flow uint64) uint64 { return uint64(100*r) + flow }
		for flow := uint64(1); flow <= flows; flow++ {
			encodeReport(dgram[(flow-1)*datapath.WireReportBytes:], flow, seqOf(flow))
		}
		if _, err := conn.Write(dgram); err != nil {
			t.Fatal(err)
		}
		for answered := 0; answered < flows; {
			n, err := conn.Read(in)
			if err != nil {
				t.Fatalf("round %d after %d replies: %v", r, answered, err)
			}
			for rec := in[:n]; len(rec) >= datapath.WireRateBytes; rec = rec[datapath.WireRateBytes:] {
				seq, nanos, flow, rate, _, ok := datapath.DecodeRate(rec)
				if !ok || flow < 1 || flow > flows || seq != seqOf(flow) || nanos != reportNanos(seq) {
					t.Fatalf("round %d: reply (ok %v flow %d seq %d nanos %d)", r, ok, flow, seq, nanos)
				}
				want, err := apps[flow].Report(chaosStatus(int(seq)))
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(rate) != math.Float64bits(want) {
					t.Fatalf("round %d flow %d: served %v, shadow library %v", r, flow, rate, want)
				}
				answered++
			}
		}
	}
	if st := srv.Stats(); st.ReportDatagrams != rounds || st.Sessions != flows || st.Malformed != 0 || st.Dropped != 0 {
		t.Fatalf("stats %+v, want %d report datagrams, %d sessions, nothing malformed or dropped", st, rounds, flows)
	}
}

// BenchmarkServeConnReport is the serve-fleet shape on one layer: 64
// goroutines, each owning 64 of 4096 flows in turn, report over one client
// socket to an in-process RateServer on loopback. ns/op is the fleet's time
// per served report, allocs/op both ends' allocations per report.
func BenchmarkServeConnReport(b *testing.B) {
	const flows, workers = 4096, 64
	lib := chaosLibrary(b, mocc.WithServing(mocc.ServingOptions{}))
	defer lib.Close()
	srv := startRateServer(b, lib, "127.0.0.1:0")
	defer srv.Close()
	conn, err := transport.DialServe(srv.Addr(), transport.ServeConnConfig{})
	if err != nil {
		b.Fatal(err)
	}
	defer conn.Close()
	owned := make([][]*transport.ServeFlow, workers)
	for i := 0; i < flows; i++ {
		sf := conn.Flow(uint64(i+1), mocc.BalancedPreference, patient)
		owned[i%workers] = append(owned[i%workers], sf)
	}
	st := chaosStatus(3)
	for _, mine := range owned {
		for _, sf := range mine { // the daemon registers each flow's session
			if _, err := sf.Report(st); err != nil {
				b.Fatal(err)
			}
		}
	}
	var quota atomic.Int64
	quota.Store(int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	for _, mine := range owned {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; quota.Add(-1) >= 0; i++ {
				if _, err := mine[i%len(mine)].Report(st); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
