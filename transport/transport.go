// Package transport is the public UDP datapath binding for MOCC: a real
// socket loop that paces any rate controller end to end — a registered
// *mocc.App, or anything else with its Rate/Report pair. Listen starts an
// acknowledging receiver; Send paces padded UDP data packets toward it at
// the rate the controller decides, closing one 20 ms monitor interval at a
// time through Report — the §5 user-space (UDT-style) deployment over real
// sockets.
//
// The wire protocol is the 18-byte header of mocc/internal/datapath
// (magic, type, sequence, send timestamp; acks echo the header), the same
// format the mocc-serve control plane speaks.
//
// The sender is hardened against a misbehaving path: it detects ack
// blackouts (no acknowledgements for three consecutive monitor intervals,
// or a fatal socket read error) and drops to a conservative probing rate
// with exponential backoff until acks return, aborts with a descriptive
// error after 64 consecutive socket write failures, and bounds the
// in-flight bookkeeping at 65 536 packets so a receiver that never acks
// cannot grow sender memory without limit. Config.WrapConn lets a
// fault-injection shim (mocc/internal/faults) interpose on the socket for
// chaos testing.
package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/internal/datapath"
)

// The sender's fixed operating constants.
const (
	// monitorInterval is how often Send closes the books and asks the
	// controller for the next rate.
	monitorInterval = 20 * time.Millisecond
	// payloadBytes sizes data packets: the wire header plus padding.
	payloadBytes = 1200
	// blackoutAfter consecutive ackless intervals with traffic in flight
	// start blackout probing.
	blackoutAfter = 3
	// blackoutFloorPps is the slowest probing rate: one packet per interval.
	blackoutFloorPps = float64(time.Second / monitorInterval)
	// maxConsecWriteErrs consecutive socket write failures abort a transfer.
	maxConsecWriteErrs = 64
	// maxOutstanding bounds the in-flight map; beyond it the oldest
	// entries are evicted and counted lost.
	maxOutstanding = 1 << 16
)

// Receiver is a UDP sink that acknowledges every data packet, optionally
// dropping a configured fraction to emulate loss on loopback links.
type Receiver struct {
	conn     *net.UDPConn
	dropProb float64
	rng      *rand.Rand // serve goroutine only
	received atomic.Int64
	done     chan struct{} // closed when serve returns
}

// ReceiverConfig tunes Listen.
type ReceiverConfig struct {
	// DropProb drops this fraction of data packets before acking
	// (emulated loss). Zero acks everything.
	DropProb float64
	// Seed drives the drop draw.
	Seed int64
}

// Listen binds a UDP socket on addr ("127.0.0.1:0" picks a free port) and
// serves acknowledgements until Close.
func Listen(addr string, cfg ReceiverConfig) (*Receiver, error) {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, fmt.Errorf("transport: listening on %q: %w", addr, err)
	}
	r := &Receiver{
		conn:     conn,
		dropProb: cfg.DropProb,
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		done:     make(chan struct{}),
	}
	go r.serve()
	return r, nil
}

// Addr returns the bound address (useful with port 0).
func (r *Receiver) Addr() string { return r.conn.LocalAddr().String() }

// Received returns the count of accepted data packets.
func (r *Receiver) Received() int { return int(r.received.Load()) }

// Close stops the receiver and releases the socket. Closing twice is
// harmless (the second call returns the socket's already-closed error).
func (r *Receiver) Close() error {
	err := r.conn.Close()
	<-r.done
	return err
}

// serve acks data packets until the socket is closed. The ack echoes the
// data header's sequence number and send timestamp.
func (r *Receiver) serve() {
	defer close(r.done)
	buf := make([]byte, 64*1024)
	ack := make([]byte, datapath.WireHeaderBytes)
	for {
		n, peer, err := r.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			continue
		}
		seq, sent, ok := datapath.DecodeData(buf[:n])
		if !ok {
			continue
		}
		if r.dropProb > 0 && r.rng.Float64() < r.dropProb {
			continue
		}
		r.received.Add(1)
		datapath.EncodeAck(ack, seq, sent)
		// A failed ack write is a loss the sender infers by timeout.
		_, _ = r.conn.WriteToUDPAddrPort(ack, peer)
	}
}

// PacketConn is the socket surface Send and DialServe drive — the subset
// of *net.UDPConn they use. Config.WrapConn can interpose on it.
type PacketConn interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// Controller decides a Send loop's pacing rate in packets/second: Rate is
// the rate for the first monitor interval, and Report closes each interval
// and returns the rate for the next. *mocc.App satisfies it.
type Controller interface {
	Rate() float64
	Report(mocc.Status) (float64, error)
}

// Config tunes a Send loop.
type Config struct {
	// MaxRatePps caps pacing (default 20000 pkts/s; loopback is fast).
	MaxRatePps float64
	// LossTimeout declares unacked packets lost after this long
	// (default 4x the observed min RTT, floor 20ms).
	LossTimeout time.Duration
	// WrapConn, if set, interposes on the dialed socket before any
	// traffic flows — the hook the fault-injection shim
	// (mocc/internal/faults.Plan.WrapConn) plugs into.
	WrapConn func(PacketConn) PacketConn
}

// Stats summarizes a finished transfer. It is populated even when Send
// returns an error, so an aborted transfer still reports what happened.
type Stats struct {
	// Sent / Acked / Lost count packets over the whole transfer.
	Sent, Acked, Lost int
	// AvgRTT is the mean RTT over every acked packet.
	AvgRTT time.Duration
	// ThroughputMbps is delivered payload bits over wall-clock time.
	ThroughputMbps float64
	// Duration is the wall-clock transfer time.
	Duration time.Duration
	// Intervals counts monitor intervals reported to the controller.
	Intervals int

	// WriteErrors counts failed socket writes over the transfer.
	WriteErrors int
	// Blackouts counts detected ack-blackout spans; BlackoutTime is their
	// total duration; BlackoutIntervals counts monitor intervals spent in
	// blackout probing.
	Blackouts         int
	BlackoutTime      time.Duration
	BlackoutIntervals int
	// Evicted counts in-flight entries dropped (and counted lost) because
	// the outstanding map hit its 65 536-entry bound.
	Evicted int
}

// sender is the per-transfer state behind Send: one pacing goroutine
// drives run/closeInterval while one ack-collector goroutine drives
// collectAcks; they share the mu-guarded interval counters.
type sender struct {
	c    Controller
	cfg  Config
	conn PacketConn

	stats Stats

	mu          sync.Mutex
	outstanding map[uint64]time.Time
	evictCursor uint64 // lowest sequence possibly still outstanding
	miAcked     int
	miRTTSum    time.Duration
	totalAcked  int
	rttSum      time.Duration
	minRTT      time.Duration

	// readDead is set by the ack collector on a fatal (non-timeout) read
	// error: the ack path is gone, so the pacing loop must treat the path
	// as blacked out rather than wait for acks that cannot arrive.
	readDead atomic.Bool

	// Pacing-loop-only blackout state.
	ctlRate    float64 // last usable rate the controller decided
	rate       float64 // effective pacing rate
	acklessMIs int
	inBlackout bool
	blackoutAt time.Time

	consecWriteErrs int
}

// Send paces packets to addr under the control of c for the given
// duration: each monitor interval it closes the books (acks collected,
// timeouts declared lost), builds a mocc.Status, and lets c.Report decide
// the next pacing rate. A *mocc.App keeps accumulating telemetry across
// calls, so app.Stats() after Send shows the transfer from the
// controller's side.
//
// The initial c.Rate() must be positive. A later decision that is not
// (NaN, zero, negative) is ignored and the previous rate kept; decisions
// above cfg.MaxRatePps are capped.
//
// Send returns (with Stats populated) rather than hanging when the path
// dies mid-transfer: an ack blackout switches pacing to conservative
// probing until acks return or the duration ends, and persistent socket
// write failures abort with a descriptive error.
func Send(addr string, c Controller, duration time.Duration, cfg Config) (Stats, error) {
	if app, isApp := c.(*mocc.App); c == nil || isApp && app == nil {
		return Stats{}, errors.New("transport: nil app")
	}
	if duration <= 0 {
		return Stats{}, errors.New("transport: duration must be positive")
	}
	if cfg.MaxRatePps <= 0 {
		cfg.MaxRatePps = 20000
	}

	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return Stats{}, fmt.Errorf("transport: resolving %q: %w", addr, err)
	}
	udp, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return Stats{}, fmt.Errorf("transport: dialing %q: %w", addr, err)
	}
	var conn PacketConn = udp
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	defer conn.Close()

	s := &sender{
		c:           c,
		cfg:         cfg,
		conn:        conn,
		outstanding: make(map[uint64]time.Time),
		evictCursor: 1,
	}
	return s.run(duration)
}

func (s *sender) run(duration time.Duration) (Stats, error) {
	s.ctlRate = math.Min(s.c.Rate(), s.cfg.MaxRatePps)
	s.rate = s.ctlRate
	if !(s.rate > 0) {
		return s.stats, fmt.Errorf("transport: app rate %v is not a usable pacing rate", s.rate)
	}

	stop := make(chan struct{})
	var ackWG sync.WaitGroup
	ackWG.Add(1)
	go func() {
		defer ackWG.Done()
		s.collectAcks(stop)
	}()

	pkt := make([]byte, payloadBytes)
	start := time.Now()
	deadline := start.Add(duration)
	nextMI := start.Add(monitorInterval)
	nextSend := start
	var seq uint64
	miSent := 0
	var loopErr error

	for time.Now().Before(deadline) {
		now := time.Now()
		if now.Before(nextSend) {
			time.Sleep(nextSend.Sub(now))
			continue
		}
		seq++
		datapath.EncodeDataHeader(pkt, seq, time.Now().UnixNano())
		if _, err := s.conn.Write(pkt); err != nil {
			s.stats.WriteErrors++
			s.consecWriteErrs++
			if s.consecWriteErrs >= maxConsecWriteErrs {
				loopErr = fmt.Errorf("transport: aborting after %d consecutive socket write failures (%d total): %w",
					s.consecWriteErrs, s.stats.WriteErrors, err)
				break
			}
		} else {
			s.consecWriteErrs = 0
			s.track(seq)
			miSent++
			s.stats.Sent++
		}
		nextSend = nextSend.Add(time.Duration(float64(time.Second) / s.rate))
		if nextSend.Before(time.Now().Add(-50 * time.Millisecond)) {
			nextSend = time.Now() // don't burst to catch up after stalls
		}

		if time.Now().After(nextMI) {
			loopErr = s.closeInterval(&miSent)
			if loopErr != nil {
				break
			}
			nextMI = nextMI.Add(monitorInterval)
		}
	}

	close(stop)
	ackWG.Wait()

	if s.inBlackout {
		s.stats.BlackoutTime += time.Since(s.blackoutAt)
	}
	s.stats.Duration = time.Since(start)
	s.mu.Lock()
	s.stats.Acked = s.totalAcked
	if s.totalAcked > 0 {
		s.stats.AvgRTT = s.rttSum / time.Duration(s.totalAcked)
	}
	s.mu.Unlock()
	if secs := s.stats.Duration.Seconds(); secs > 0 {
		s.stats.ThroughputMbps = float64(s.stats.Acked*payloadBytes) * 8 / 1e6 / secs
	}
	return s.stats, loopErr
}

// track records an in-flight packet, evicting the oldest entries (counted
// lost) when the bookkeeping map would exceed maxOutstanding — a receiver
// that never acks cannot grow sender memory without bound.
func (s *sender) track(seq uint64) {
	s.mu.Lock()
	for len(s.outstanding) >= maxOutstanding {
		for s.evictCursor < seq {
			if _, ok := s.outstanding[s.evictCursor]; ok {
				delete(s.outstanding, s.evictCursor)
				s.stats.Lost++
				s.stats.Evicted++
				break
			}
			s.evictCursor++
		}
	}
	s.outstanding[seq] = time.Now()
	s.mu.Unlock()
}

// collectAcks drains acknowledgements until stop closes. A fatal
// (non-timeout) read error does not end the transfer silently: it flags
// readDead so the pacing loop enters blackout handling instead of waiting
// for acks that can no longer arrive.
func (s *sender) collectAcks(stop <-chan struct{}) {
	buf := make([]byte, 2048)
	for {
		_ = s.conn.SetReadDeadline(time.Now().Add(5 * time.Millisecond))
		n, err := s.conn.Read(buf)
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				select {
				case <-stop:
					return
				default:
					continue
				}
			}
			s.readDead.Store(true)
			return
		}
		seq, _, ok := datapath.DecodeAck(buf[:n])
		if !ok {
			continue
		}
		now := time.Now()
		s.mu.Lock()
		if sentAt, ok := s.outstanding[seq]; ok {
			delete(s.outstanding, seq)
			rtt := now.Sub(sentAt)
			s.miAcked++
			s.miRTTSum += rtt
			s.totalAcked++
			s.rttSum += rtt
			if s.minRTT == 0 || rtt < s.minRTT {
				s.minRTT = rtt
			}
		}
		s.mu.Unlock()
	}
}

// closeInterval ends one monitor interval: it infers losses from the
// timeout, builds the controller-visible Status, asks the controller for
// the next rate, and runs the blackout detector that decides whether the
// controller's rate or a conservative probing rate paces the next interval.
func (s *sender) closeInterval(miSent *int) error {
	s.mu.Lock()
	minRTT := s.minRTT // written by the ack goroutine under mu
	timeout := s.cfg.LossTimeout
	if timeout <= 0 {
		timeout = 4 * minRTT
		if timeout < 20*time.Millisecond {
			timeout = 20 * time.Millisecond
		}
	}
	now := time.Now()
	lost := 0
	for seq, sentAt := range s.outstanding {
		if now.Sub(sentAt) > timeout {
			delete(s.outstanding, seq)
			lost++
		}
	}
	inFlight := len(s.outstanding)
	sent, acked := *miSent, s.miAcked
	rttSum := s.miRTTSum
	*miSent, s.miAcked, s.miRTTSum = 0, 0, 0
	s.mu.Unlock()

	s.stats.Lost += lost
	s.stats.Intervals++

	avgRTT := time.Duration(0)
	if acked > 0 {
		avgRTT = rttSum / time.Duration(acked)
	} else if minRTT > 0 {
		avgRTT = minRTT
	} else {
		avgRTT = time.Millisecond
	}
	miMinRTT := minRTT
	if miMinRTT <= 0 {
		miMinRTT = avgRTT
	}

	// Acks and timeouts settle after the interval that sent the packets,
	// so fold the in-flight carryover into the sent count: the Status
	// invariant acked+lost <= sent then holds per interval, and the
	// controller features (send/delivery ratios) are unaffected.
	effSent := sent
	if acked+lost > effSent {
		effSent = acked + lost
	}
	next, err := s.c.Report(mocc.Status{
		Duration:     monitorInterval,
		PacketsSent:  float64(effSent),
		PacketsAcked: float64(acked),
		PacketsLost:  float64(lost),
		AvgRTT:       avgRTT,
		MinRTT:       miMinRTT,
	})
	if err != nil {
		return err
	}
	// A decision that is not a positive rate would become a negative send
	// gap, and the catch-up guard would then send back to back: keep the
	// previous rate instead.
	if next > 0 {
		s.ctlRate = math.Min(next, s.cfg.MaxRatePps)
	}
	s.blackoutStep(acked, sent, inFlight)
	return nil
}

// blackoutStep updates the ack-blackout detector after one monitor
// interval and picks the effective pacing rate: the controller's rate
// normally, or a conservative probe (quarter of the last good rate,
// halving each blacked-out interval down to one packet per interval) while
// the path is dark. The first ack ends the blackout and control returns to
// the controller immediately.
func (s *sender) blackoutStep(acked, sent, inFlight int) {
	if acked > 0 {
		s.acklessMIs = 0
		if s.inBlackout {
			s.inBlackout = false
			s.stats.BlackoutTime += time.Since(s.blackoutAt)
		}
		s.rate = s.ctlRate
		return
	}
	if sent > 0 || inFlight > 0 || s.readDead.Load() {
		s.acklessMIs++
	}
	if !s.inBlackout && (s.acklessMIs >= blackoutAfter || s.readDead.Load()) {
		s.inBlackout = true
		s.blackoutAt = time.Now()
		s.stats.Blackouts++
		s.rate = math.Max(s.ctlRate/4, blackoutFloorPps)
	} else if s.inBlackout {
		s.rate = math.Max(s.rate/2, blackoutFloorPps)
	} else {
		s.rate = s.ctlRate
	}
	if s.inBlackout {
		s.stats.BlackoutIntervals++
	}
}
