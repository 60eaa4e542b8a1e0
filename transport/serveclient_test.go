package transport

import (
	"bytes"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"mocc"
	"mocc/internal/datapath"
)

// listenStub binds a plain UDP socket on loopback: a daemon stand-in that
// sees report datagrams exactly as they come off the wire.
func listenStub(t *testing.T) *net.UDPConn {
	t.Helper()
	stub, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { stub.Close() })
	return stub
}

// stubStatus is one plausible monitor interval.
var stubStatus = mocc.Status{
	Duration: 40 * time.Millisecond, PacketsSent: 50, PacketsAcked: 48, PacketsLost: 1,
	AvgRTT: 45 * time.Millisecond, MinRTT: 40 * time.Millisecond,
}

// TestServeConnCoalescesReports pins the client's flat combining against a
// stub daemon. A lone report goes out as one datagram of exactly
// WireReportBytes, byte-equal to EncodeReport. Then 32 flows report in
// rounds, the stub answering each round's 32 records in one reply datagram,
// so all 32 flows wake together: at least one report datagram carries two
// or more records, none carries more than 14, every datagram is whole
// records, and seqs are unique and increase within a datagram.
func TestServeConnCoalescesReports(t *testing.T) {
	stub := listenStub(t)
	var wg sync.WaitGroup
	defer wg.Wait() // after Close has unblocked every flow
	c, err := DialServe(stub.LocalAddr().String(), ServeConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	patient := FailoverConfig{Timeout: 10 * time.Second}
	buf := make([]byte, 64*1024)
	stub.SetReadDeadline(time.Now().Add(30 * time.Second))

	// A lone report.
	w := mocc.Weights{Thr: 0.4, Lat: 0.3, Loss: 0.3}
	lone := c.Flow(100, w, patient)
	done := make(chan error, 1)
	go func() {
		_, err := lone.Report(stubStatus)
		done <- err
	}()
	n, from, err := stub.ReadFromUDPAddrPort(buf)
	if err != nil {
		t.Fatal(err)
	}
	seq, nanos, _, ok := datapath.DecodeReport(buf[:n])
	want := make([]byte, datapath.WireReportBytes)
	datapath.EncodeReport(want, seq, nanos, wireReport(100, w, stubStatus))
	if !ok || !bytes.Equal(buf[:n], want) {
		t.Fatalf("lone report datagram %x, want %x", buf[:n], want)
	}
	rec := make([]byte, datapath.WireRateBytes)
	datapath.EncodeRate(rec, seq, nanos, 100, 1000, 1)
	if _, err := stub.WriteToUDPAddrPort(rec, from); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// 32 flows woken together, round after round.
	const flows, rounds = 32, 50
	for i := uint64(1); i <= flows; i++ {
		sf := c.Flow(i, w, patient)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, err := sf.Report(stubStatus); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	seen := map[uint64]bool{seq: true}
	var datagrams, multi int
	reply := make([]byte, 0, flows*datapath.WireRateBytes)
	for r := 0; r < rounds && !t.Failed(); r++ {
		reply = reply[:0]
		for got := 0; got < flows; {
			n, from, err = stub.ReadFromUDPAddrPort(buf)
			if err != nil {
				t.Fatalf("round %d after %d records: %v", r, got, err)
			}
			records := n / datapath.WireReportBytes
			if n%datapath.WireReportBytes != 0 || records < 1 || records > maxReportRecords {
				t.Fatalf("report datagram of %d bytes, want 1..%d whole %d-byte records", n, maxReportRecords, datapath.WireReportBytes)
			}
			datagrams++
			if records > 1 {
				multi++
			}
			prev := uint64(0)
			for off := 0; off < n; off += datapath.WireReportBytes {
				seq, nanos, rep, ok := datapath.DecodeReport(buf[off:n])
				if !ok || seq <= prev || seen[seq] {
					t.Fatalf("record %d of a datagram: ok %v seq %d after %d (seen before: %v)", off/datapath.WireReportBytes, ok, seq, prev, seen[seq])
				}
				prev, seen[seq] = seq, true
				datapath.EncodeRate(rec, seq, nanos, rep.Flow, 1000, 1)
				reply = append(reply, rec...)
			}
			got += records
		}
		if _, err := stub.WriteToUDPAddrPort(reply, from); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	if multi == 0 {
		t.Fatalf("%d reports in %d datagrams, none carrying two or more", flows*rounds, datagrams)
	}
	t.Logf("%d reports in %d datagrams (%.2f per datagram), %d of them coalesced", flows*rounds, datagrams,
		float64(flows*rounds)/float64(datagrams), multi)
}

// failingWrites fails every Write, the first only once released: a daemon
// socket refusing datagrams (ICMP port unreachable while it restarts).
type failingWrites struct {
	PacketConn
	entered, release chan struct{}
	once             sync.Once

	mu   sync.Mutex
	lens []int
}

func (w *failingWrites) Write(b []byte) (int, error) {
	w.once.Do(func() {
		close(w.entered)
		<-w.release
	})
	w.mu.Lock()
	w.lens = append(w.lens, len(b))
	w.mu.Unlock()
	return 0, errors.New("connection refused")
}

// TestServeConnFailedWriteFailsEveryFlow pins the failure of a combined
// write: while flow 1 holds the write turn, flows 2 and 3 queue their
// reports behind it, and the one datagram carrying both fails. Every flow
// returns long before its 5 s timeout, each counting one timeout (and,
// with no retries, failing over), rather than only the writer seeing the
// error.
func TestServeConnFailedWriteFailsEveryFlow(t *testing.T) {
	fw := &failingWrites{entered: make(chan struct{}), release: make(chan struct{})}
	var wg sync.WaitGroup
	defer wg.Wait() // after Close has unblocked every flow
	var release sync.Once
	defer release.Do(func() { close(fw.release) })
	c, err := DialServe(listenStub(t).LocalAddr().String(), ServeConnConfig{
		WrapConn: func(inner PacketConn) PacketConn {
			fw.PacketConn = inner
			return fw
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const timeout = 5 * time.Second
	var flows []*ServeFlow
	for i := uint64(1); i <= 3; i++ {
		flows = append(flows, c.Flow(i, mocc.BalancedPreference, FailoverConfig{Timeout: timeout}))
	}
	elapsed := make(chan time.Duration, len(flows))
	report := func(sf *ServeFlow) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			start := time.Now()
			if _, err := sf.Report(stubStatus); err != nil {
				t.Error(err)
			}
			elapsed <- time.Since(start)
		}()
	}
	report(flows[0])
	<-fw.entered
	report(flows[1])
	report(flows[2])
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		c.wmu.Lock()
		queued := len(c.pending.flows)
		c.wmu.Unlock()
		if queued == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d reports queued behind the writer, want 2", queued)
		}
	}
	release.Do(func() { close(fw.release) })
	for range flows {
		if d := <-elapsed; d > timeout/5 {
			t.Errorf("a flow returned after %v: it waited for its timeout", d)
		}
	}
	fw.mu.Lock()
	lens := fw.lens
	fw.mu.Unlock()
	if len(lens) != 2 || lens[0] != datapath.WireReportBytes || lens[1] != 2*datapath.WireReportBytes {
		t.Fatalf("writes of %v bytes, want [%d %d]", lens, datapath.WireReportBytes, 2*datapath.WireReportBytes)
	}
	for i, sf := range flows {
		if st := sf.Stats(); st.Timeouts != 1 || st.Fallbacks != 1 || st.Served != 0 {
			t.Errorf("flow %d: %+v, want one timeout and one failover", i+1, st)
		}
	}
}

// silentConn dials a ServeConn to a stub daemon that reads every report and
// never answers.
func silentConn(t *testing.T) *ServeConn {
	t.Helper()
	c, err := DialServe(listenStub(t).LocalAddr().String(), ServeConnConfig{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// timeoutSlack is scheduling headroom on a loaded box, beyond the sweep's
// period.
const timeoutSlack = 50 * time.Millisecond

// timedReport runs one Report of a flow that does not retry and returns
// how long it took; against a silent daemon that is one attempt's timeout.
// A Report that never returns fails the test (Cleanup's Close ends it).
func timedReport(t *testing.T, sf *ServeFlow) time.Duration {
	t.Helper()
	start := time.Now()
	done := make(chan error, 1)
	go func() {
		_, err := sf.Report(stubStatus)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Report never timed out")
	}
	d := time.Since(start)
	if st := sf.Stats(); st.Timeouts != 1 || st.Fallbacks != 1 {
		t.Fatalf("%+v, want one timeout and one failover", st)
	}
	return d
}

// TestServeFlowTimeoutResolution pins the sweep's resolution against a
// daemon that never answers: an attempt times out in [Timeout, Timeout +
// Timeout/4], give or take scheduling, never early.
func TestServeFlowTimeoutResolution(t *testing.T) {
	c := silentConn(t)
	const timeout = 100 * time.Millisecond
	for i := uint64(1); i <= 3; i++ {
		sf := c.Flow(i, mocc.BalancedPreference, FailoverConfig{Timeout: timeout, Retries: -1})
		if d := timedReport(t, sf); d < timeout || d > timeout+timeout/4+timeoutSlack {
			t.Errorf("flow %d timed out after %v, want [%v, %v]", i, d, timeout, timeout+timeout/4)
		}
	}
}

// TestServeFlowTimeoutLowersArmedSweep registers a 2 s flow, so the reader
// parks on a 500 ms read deadline, then an 80 ms one: the shorter period
// must reach the parked reader, and the 80 ms flow time out inside its own
// window rather than at the next 500 ms sweep.
func TestServeFlowTimeoutLowersArmedSweep(t *testing.T) {
	c := silentConn(t)
	c.Flow(1, mocc.BalancedPreference, FailoverConfig{Timeout: 2 * time.Second})
	time.Sleep(20 * time.Millisecond) // the reader is parked on the 500 ms deadline
	const timeout = 80 * time.Millisecond
	sf := c.Flow(2, mocc.BalancedPreference, FailoverConfig{Timeout: timeout, Retries: -1})
	if d := timedReport(t, sf); d < timeout || d > timeout+timeout/4+timeoutSlack {
		t.Errorf("80 ms flow timed out after %v, want [%v, %v]", d, timeout, timeout+timeout/4)
	}
}

// TestServeFlowStaleRepliesTimeoutAndClose fills a flow's channel with
// four stale replies before it waits. Draining them must not end the wait,
// and must not keep the sweep, or Close, from ending it.
func TestServeFlowStaleRepliesTimeoutAndClose(t *testing.T) {
	stale := func(sf *ServeFlow) {
		for i := 0; i < cap(sf.ch); i++ {
			sf.ch <- rateReply{seq: 1<<62 + uint64(i), rate: 1000}
		}
	}
	t.Run("timeout", func(t *testing.T) {
		c := silentConn(t)
		const timeout = 100 * time.Millisecond
		sf := c.Flow(1, mocc.BalancedPreference, FailoverConfig{Timeout: timeout, Retries: -1})
		stale(sf)
		if d := timedReport(t, sf); d < timeout || d > timeout+timeout/4+timeoutSlack {
			t.Errorf("timed out after %v, want [%v, %v]", d, timeout, timeout+timeout/4)
		}
	})
	t.Run("close", func(t *testing.T) {
		c := silentConn(t)
		sf := c.Flow(1, mocc.BalancedPreference, FailoverConfig{Timeout: time.Minute})
		stale(sf)
		done := make(chan error, 1)
		go func() {
			_, err := sf.Report(stubStatus)
			done <- err
		}()
		for sf.deadline.Load() == 0 || len(sf.ch) > 0 {
			select {
			case err := <-done:
				t.Fatalf("Report returned %v before Close", err)
			case <-time.After(time.Millisecond): // until the flow waits on an empty channel
			}
		}
		c.Close()
		select {
		case err := <-done:
			if !errors.Is(err, net.ErrClosed) {
				t.Fatalf("Report after Close: %v, want net.ErrClosed", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close did not unblock a waiting Report")
		}
	})
}

// TestServeFlowReportAfterClose pins the ServeFlow contract on a closed
// conn: Report returns net.ErrClosed, including from a degraded flow whose
// next probe is a minute away (which would otherwise decide locally).
func TestServeFlowReportAfterClose(t *testing.T) {
	c := silentConn(t)
	sf := c.Flow(1, mocc.BalancedPreference, FailoverConfig{
		Timeout: 20 * time.Millisecond, Retries: -1, BackoffBase: time.Minute})
	timedReport(t, sf)
	if !sf.Stats().FallbackActive {
		t.Fatal("flow did not fail over")
	}
	c.Close()
	if _, err := sf.Report(stubStatus); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Report of a degraded flow after Close: %v, want net.ErrClosed", err)
	}
}
