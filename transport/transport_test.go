package transport_test

import (
	"bytes"
	"math"
	"net"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"mocc"
	"mocc/internal/datapath"
	"mocc/transport"
)

// fixedRate is a Controller that always decides the same rate, so the
// socket-loop tests need no trained model and run under -short.
type fixedRate float64

func (f fixedRate) Rate() float64                       { return float64(f) }
func (f fixedRate) Report(mocc.Status) (float64, error) { return float64(f), nil }

// scripted starts at a fixed rate and then decides its script in a loop.
type scripted struct {
	initial float64
	script  []float64
	calls   int
}

func (s *scripted) Rate() float64 { return s.initial }

func (s *scripted) Report(mocc.Status) (float64, error) {
	r := s.script[s.calls%len(s.script)]
	s.calls++
	return r, nil
}

func listen(t *testing.T, cfg transport.ReceiverConfig) *transport.Receiver {
	t.Helper()
	recv, err := transport.Listen("127.0.0.1:0", cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { recv.Close() })
	return recv
}

func TestUDPTransferLoopback(t *testing.T) {
	recv := listen(t, transport.ReceiverConfig{Seed: 1})
	stats, err := transport.Send(recv.Addr(), fixedRate(2000), 500*time.Millisecond, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if stats.Acked == 0 {
		t.Fatal("nothing acknowledged")
	}
	if stats.Acked > stats.Sent {
		t.Errorf("acked %d > sent %d", stats.Acked, stats.Sent)
	}
	if stats.Intervals < 10 {
		t.Errorf("only %d monitor intervals for a 500ms/20ms run", stats.Intervals)
	}
	if stats.AvgRTT <= 0 || stats.AvgRTT > 200*time.Millisecond {
		t.Errorf("loopback RTT %v implausible", stats.AvgRTT)
	}
	if recv.Received() == 0 {
		t.Error("receiver counted nothing")
	}
}

func TestUDPTransferWithLoss(t *testing.T) {
	recv := listen(t, transport.ReceiverConfig{DropProb: 0.3, Seed: 2})
	stats, err := transport.Send(recv.Addr(), fixedRate(2000), 600*time.Millisecond, transport.Config{
		LossTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Lost == 0 {
		t.Error("30% drop probability produced no inferred losses")
	}
	if frac := float64(stats.Acked) / float64(stats.Sent); frac > 0.9 {
		t.Errorf("ack fraction %v too high under 30%% loss", frac)
	}
}

func TestUDPTransferValidation(t *testing.T) {
	if _, err := transport.Send("127.0.0.1:1", nil, time.Second, transport.Config{}); err == nil {
		t.Error("nil controller accepted")
	}
	if _, err := transport.Send("127.0.0.1:1", fixedRate(100), 0, transport.Config{}); err == nil {
		t.Error("zero duration accepted")
	}
	if _, err := transport.Send("bogus::::", fixedRate(100), time.Second, transport.Config{}); err == nil {
		t.Error("bad address accepted")
	}
}

func TestReceiverClose(t *testing.T) {
	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := recv.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	// Second close must not panic or block.
	_ = recv.Close()
}

// TestReceiverAckBytes pins the ack on the wire: a data packet in gives
// exactly EncodeAck(seq, nanos) back, and non-data datagrams get nothing.
func TestReceiverAckBytes(t *testing.T) {
	recv := listen(t, transport.ReceiverConfig{})
	raddr, err := net.ResolveUDPAddr("udp", recv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	stray := make([]byte, datapath.WireHeaderBytes)
	datapath.EncodeAck(stray, 1, 1)
	if _, err := conn.Write(stray); err != nil {
		t.Fatal(err)
	}
	const seq, nanos = 0x0102030405060708, -42
	pkt := make([]byte, 1200)
	datapath.EncodeDataHeader(pkt, seq, nanos)
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 2048)
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]byte, datapath.WireHeaderBytes)
	datapath.EncodeAck(want, seq, nanos)
	if !bytes.Equal(buf[:n], want) {
		t.Fatalf("ack = %x, want %x", buf[:n], want)
	}
	if recv.Received() != 1 {
		t.Fatalf("Received = %d, want 1 (the stray ack is not data)", recv.Received())
	}
}

func TestSendValidation(t *testing.T) {
	if _, err := transport.Send("127.0.0.1:9", nil, time.Second, transport.Config{}); err == nil {
		t.Error("nil app accepted")
	}
	var app *mocc.App
	if _, err := transport.Send("127.0.0.1:9", app, time.Second, transport.Config{}); err == nil {
		t.Error("typed-nil app accepted")
	}
	for _, r := range []float64{math.NaN(), 0, -1} {
		if _, err := transport.Send("127.0.0.1:9", fixedRate(r), time.Second, transport.Config{}); err == nil {
			t.Errorf("initial rate %v accepted", r)
		}
	}
}

// TestSendPacingRateContract feeds decisions that are not positive rates
// (NaN, 0, -1) and +Inf: the first three keep the previous rate, +Inf is
// capped, and the loop never sends unpaced.
func TestSendPacingRateContract(t *testing.T) {
	recv := listen(t, transport.ReceiverConfig{})
	const maxRate, dur = 2000, 400 * time.Millisecond
	c := &scripted{initial: 500, script: []float64{math.NaN(), 0, -1, math.Inf(1)}}
	stats, err := transport.Send(recv.Addr(), c, dur, transport.Config{MaxRatePps: maxRate})
	if err != nil {
		t.Fatal(err)
	}
	if c.calls < 4 {
		t.Fatalf("only %d decisions made; the script never ran", c.calls)
	}
	if limit := 1.2 * maxRate * dur.Seconds(); float64(stats.Sent) > limit {
		t.Fatalf("sent %d packets in %v, above %.0f: pacing broke", stats.Sent, dur, limit)
	}
	if stats.Acked == 0 {
		t.Fatalf("transfer moved nothing: %+v", stats)
	}
}

// trickleConn stands in for the dialed socket: writes vanish, and each Read
// waits a millisecond and then acks only the newest packet written since
// the last ack (or times out when there is none).
type trickleConn struct {
	transport.PacketConn // the dialed socket, for SetReadDeadline and Close
	newest               atomic.Uint64
	acked                uint64 // ack-collector goroutine only
}

func (c *trickleConn) Write(b []byte) (int, error) {
	if _, seq, ok := datapath.DecodeHeader(b); ok {
		c.newest.Store(seq)
	}
	return len(b), nil
}

func (c *trickleConn) Read(b []byte) (int, error) {
	time.Sleep(time.Millisecond)
	seq := c.newest.Load()
	if seq == c.acked {
		return 0, os.ErrDeadlineExceeded
	}
	c.acked = seq
	datapath.EncodeAck(b, seq, 0)
	return datapath.WireHeaderBytes, nil
}

// TestSendEvictsUnackedBacklog paces 1e6 packets/s, with a loss timeout
// longer than the transfer, over a path that acks one packet per
// millisecond and never the rest: the in-flight map must hit its bound and
// evict, and every eviction counts as a loss. (A path that never acks at
// all cannot get there: blackout probing throttles the sender to one
// packet per interval after three ackless intervals.)
func TestSendEvictsUnackedBacklog(t *testing.T) {
	stats, err := transport.Send("127.0.0.1:9", fixedRate(1e6), 500*time.Millisecond, transport.Config{
		MaxRatePps:  1e6,
		LossTimeout: 10 * time.Second,
		WrapConn: func(inner transport.PacketConn) transport.PacketConn {
			return &trickleConn{PacketConn: inner}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Evicted == 0 {
		t.Fatalf("in-flight map never hit its bound: %+v", stats)
	}
	if stats.Lost < stats.Evicted {
		t.Fatalf("lost %d < evicted %d", stats.Lost, stats.Evicted)
	}
}

// TestLoopbackTransfer hosts a registered handle over a real loopback
// socket pair, with emulated loss, and checks both sides' accounting.
func TestLoopbackTransfer(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	opts := mocc.QuickTraining()
	opts.Omega = 3
	opts.BootstrapIters = 2
	opts.BootstrapCycles = 1
	opts.TraverseCycles = 0
	lib, err := mocc.Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := lib.Register(mocc.ThroughputPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Unregister()

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{DropProb: 0.05, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	stats, err := transport.Send(recv.Addr(), app, 400*time.Millisecond, transport.Config{
		LossTimeout: 60 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent == 0 {
		t.Fatal("sender moved no packets")
	}
	if stats.Acked == 0 {
		t.Fatalf("no acknowledgements came back: %+v", stats)
	}
	if stats.Acked > stats.Sent {
		t.Errorf("acked %d > sent %d", stats.Acked, stats.Sent)
	}
	if recv.Received() == 0 {
		t.Error("receiver accepted nothing")
	}
	if stats.Intervals == 0 {
		t.Error("no monitor intervals closed")
	}

	// The handle saw every interval the transport closed, and its Status
	// stream passed validation (Send fails otherwise).
	s := app.Stats()
	if int(s.Reports) != stats.Intervals {
		t.Errorf("app reports %d != transport intervals %d", s.Reports, stats.Intervals)
	}
	if s.PacketsAcked == 0 || s.AvgRTT <= 0 {
		t.Errorf("implausible telemetry: %+v", s)
	}
}
