package transport

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/datapath"
	"mocc/internal/obs"
)

// ServeConn is the client side of a mocc-serve daemon: one shared UDP
// socket carrying any number of flows' report/rate exchanges (10k flows
// over per-flow sockets would exhaust file descriptors). A central reader
// demuxes the rate records of each reply datagram to per-flow channels by
// flow id.
//
// Report writes are flat-combined: a flow encodes its report record into a
// shared pending buffer, and whichever flow holds the write turn sends
// everything pending as datagrams of up to maxReportRecords records (see
// request). A lone report goes out alone.
//
// A waiting flow blocks on its channel alone: once per quarter of the
// smallest Timeout of its flows, the reader sweeps for expired deadlines.
//
// ServeConnConfig.WrapConn is the chaos seam: a fault-injection shim
// (mocc/internal/faults.Plan.WrapConn) interposed here classifies report
// datagrams on the write side and rate replies on the read side, so
// daemon-path failover is pinned by the same seeded plans as the data path.
type ServeConn struct {
	conn PacketConn
	raw  *net.UDPConn

	mu     sync.Mutex
	flows  map[uint64]*ServeFlow // never shrinks: a flow stays for the conn's life
	period time.Duration         // the sweep's, 0 before the first flow
	base   time.Time             // zero of the flows' monotonic deadlines

	// wmu guards the write path: the socket-wide report seq, the records
	// waiting for a writer, the recycled buffers of the batch last written,
	// and whether a flow holds the write turn.
	wmu     sync.Mutex
	seq     uint64
	pending reportBatch
	spare   reportBatch
	writing bool

	closed     atomic.Bool
	readerDone chan struct{}
	malformed  atomic.Int64

	// latency and events come from ServeConnConfig.Metrics (nil without
	// it; both are nil-safe).
	latency *obs.Histogram
	events  *obs.EventLog
}

// ServeConnConfig tunes DialServe.
type ServeConnConfig struct {
	// WrapConn, when non-nil, interposes on the socket (fault injection).
	WrapConn func(PacketConn) PacketConn
	// Metrics, when non-nil, registers the serve-client series
	// (mocc_client_*) on the sink and emits failover/resync events into
	// its event log. Typically the sink the daemon side passes to
	// mocc.WithObservability, so client and server views of an outage
	// land in one registry with identical latency bucketing. One sink
	// serves one library, its RateServer and one ServeConn: a series is
	// registered once, and reads the conn that registered it first.
	Metrics *mocc.Metrics
}

// A flow's client counters, as indexes into ServeFlow.n.
const (
	cReports = iota
	cServed
	cShed
	cTimeouts
	cRetries
	cFallbacks
	cFallbackReports
	cResyncs
	numCounters
)

// clientSeries names the fleet series of each client counter: its sum
// over the conn's flows, read at scrape time.
var clientSeries = [numCounters]struct{ name, help string }{
	cReports:         {"mocc_client_reports_total", "Report calls made by serve-client flows."},
	cServed:          {"mocc_client_served_total", "Reports answered by the daemon with a usable rate."},
	cShed:            {"mocc_client_shed_total", "Reports the daemon answered with an overload shed."},
	cTimeouts:        {"mocc_client_timeouts_total", "Report attempts that got no daemon reply in time."},
	cRetries:         {"mocc_client_retries_total", "Extra report attempts made before failing over."},
	cFallbacks:       {"mocc_client_fallbacks_total", "Failover episodes: flows degrading to the local controller."},
	cFallbackReports: {"mocc_client_fallback_reports_total", "Monitor intervals decided by the local fallback controller."},
	cResyncs:         {"mocc_client_resyncs_total", "Flows resyncing from the fallback to the learned path."},
}

// registerMetrics wires the conn to m. Flows are never removed from a
// conn, so every scrape-time sum is monotonic.
func (c *ServeConn) registerMetrics(m *mocc.Metrics) {
	reg := m.Registry()
	if reg == nil {
		return
	}
	for i, s := range clientSeries {
		reg.CounterFunc(s.name, s.help, func() uint64 { return c.total(i) })
	}
	reg.CounterFunc("mocc_client_malformed_total", "Reply datagrams that failed to decode.",
		func() uint64 { return uint64(c.malformed.Load()) })
	c.latency = reg.Histogram("mocc_client_report_latency_seconds",
		"Client-observed decision latency per Report, including retries and fallback decisions.", 1e-9)
	c.events = m.EventLog()
}

// total sums client counter i over the conn's flows.
func (c *ServeConn) total(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	var n int64
	for _, f := range c.flows {
		n += f.n[i].Load()
	}
	return uint64(n)
}

// rateReply is one decoded rate record, or, with err set, the failed write
// of report seq; seq 0 is a sweep's wake.
type rateReply struct {
	seq   uint64
	nanos int64
	rate  float64
	epoch uint64
	err   error
}

// reportBatch is report records back to back, each WireReportBytes, and
// the flow that sent each, in seq order.
type reportBatch struct {
	b     []byte
	flows []*ServeFlow
}

// maxReportRecords caps the report records in one datagram so it fits one
// packet on an IPv6 path with a 1500-byte MTU: (1500 − 40 IPv6 − 8 UDP) /
// WireReportBytes = 14, or 1372 B.
const maxReportRecords = (1500 - 40 - 8) / datapath.WireReportBytes

// DialServe connects a shared client socket to a mocc-serve daemon.
func DialServe(addr string, cfg ServeConnConfig) (*ServeConn, error) {
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: serve dial: %w", err)
	}
	raw, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		return nil, fmt.Errorf("transport: serve dial: %w", err)
	}
	_ = raw.SetReadBuffer(fleetReadBuffer) // best effort, see fleetReadBuffer
	var conn PacketConn = raw
	if cfg.WrapConn != nil {
		conn = cfg.WrapConn(conn)
	}
	c := &ServeConn{
		conn:       conn,
		raw:        raw,
		flows:      make(map[uint64]*ServeFlow),
		base:       time.Now(),
		readerDone: make(chan struct{}),
	}
	c.registerMetrics(cfg.Metrics)
	go c.readLoop()
	return c, nil
}

// Close tears the socket and the reader down. Flows still blocked in a
// Report unblock with an error.
func (c *ServeConn) Close() error {
	if !c.closed.CompareAndSwap(false, true) {
		return nil
	}
	c.sweep(math.MaxInt64) // after closed is set: see request
	err := c.conn.Close()
	<-c.readerDone
	return err
}

// Malformed counts reply datagrams that failed to decode (corrupted
// headers, truncated records), once per datagram.
func (c *ServeConn) Malformed() int64 { return c.malformed.Load() }

// readLoop is the central reader: one deliver per reply datagram, one sweep
// per expired (absolute) read deadline. Transient socket errors (ICMP
// refused while the daemon restarts) are retried.
func (c *ServeConn) readLoop() {
	defer close(c.readerDone)
	buf := make([]byte, 64*1024)
	for {
		n, err := c.conn.Read(buf)
		switch {
		case err == nil:
			c.deliver(buf[:n])
		case c.closed.Load() || errors.Is(err, net.ErrClosed):
			return
		case errors.Is(err, os.ErrDeadlineExceeded):
			c.sweep(int64(time.Since(c.base)))
		}
	}
}

// sweep wakes, as deliver posts, every flow whose deadline is ≤ by (a full
// channel is a flow awake already), and re-arms the read deadline.
func (c *ServeConn) sweep(by int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, f := range c.flows {
		if d := f.deadline.Load(); d != 0 && d <= by {
			select {
			case f.ch <- rateReply{}:
			default:
			}
		}
	}
	_ = c.conn.SetReadDeadline(time.Now().Add(c.period)) // fails only once closed
}

// deliver demuxes one reply datagram — one or more whole rate records back
// to back — handing each record to its flow's channel, under one c.mu for
// the whole datagram. Records of unknown flows are dropped. Decoding stops
// at the first record that is not a whole valid rate record (or when there
// is none at all), and the datagram counts one Malformed.
func (c *ServeConn) deliver(buf []byte) {
	bad := len(buf) == 0
	c.mu.Lock()
	for len(buf) > 0 {
		seq, nanos, flow, rate, epoch, ok := datapath.DecodeRate(buf)
		if !ok {
			bad = true
			break
		}
		buf = buf[datapath.WireRateBytes:]
		f := c.flows[flow]
		if f == nil {
			continue // unknown flow
		}
		select {
		case f.ch <- rateReply{seq: seq, nanos: nanos, rate: rate, epoch: epoch}:
		default: // it gave up on this seq long ago
		}
	}
	c.mu.Unlock()
	if bad {
		c.malformed.Add(1)
	}
}

// request performs one report->rate exchange of the flow: encode, write,
// await the matching reply. ok=false is a timeout or a transient write
// failure (the daemon is unreachable); a non-nil error means the ServeConn
// is closed.
//
// The write is flat-combined. Under wmu the flow takes the next
// socket-wide seq (what seeded fault plans key blackout windows on, as on
// the data path) and encodes its record into the pending batch. If another
// flow holds the write turn, that flow will send the record; otherwise this
// one takes the turn (writePending) before it waits on f.ch alone. A wake
// that is not its reply makes the flow check closed and its own deadline,
// which it stores before it checks closed: Close's sweep finds it, or it
// sees closed.
func (f *ServeFlow) request(rep datapath.WireReport) (rateReply, bool, error) {
	c := f.conn
	now := time.Now()
	deadline := int64(now.Sub(c.base) + f.cfg.Timeout)
	f.deadline.Store(deadline)
	defer f.deadline.Store(0)
	if c.closed.Load() {
		return rateReply{}, false, net.ErrClosed
	}
	c.wmu.Lock()
	c.seq++
	seq := c.seq
	c.pending.add(f, seq, now.UnixNano(), rep)
	if c.writing {
		c.wmu.Unlock()
	} else {
		c.writing = true
		c.wmu.Unlock()
		// Yield once before taking the batch, so the flows that the same
		// reply datagram woke can append their reports first. Without it,
		// the first flow woken writes alone before the others run: on
		// serve-fleet (2 vCPU) the rule "a flow that finds no writer active
		// sends at once" coalesced 1.03 records per datagram, the yield
		// 3.45. A lone report pays one Gosched, and nothing waits on a
		// timer.
		runtime.Gosched()
		c.writePending()
	}
	for {
		r := <-f.ch
		if r.seq == seq && r.err == nil {
			return r, true, nil
		}
		if c.closed.Load() || errors.Is(r.err, net.ErrClosed) {
			return rateReply{}, false, net.ErrClosed
		}
		// This seq's failed write (transient, e.g. ICMP refused while the
		// daemon restarts) or a passed deadline is an unreachable daemon,
		// not an error; anything else was stale.
		if r.seq == seq || int64(time.Since(c.base)) >= deadline {
			return rateReply{}, false, nil
		}
	}
}

// add encodes report seq of flow f at the end of the batch. The buffers
// grow to the largest batch seen and are recycled from then on.
func (b *reportBatch) add(f *ServeFlow, seq uint64, unixNanos int64, rep datapath.WireReport) {
	n := len(b.b)
	b.b = slices.Grow(b.b, datapath.WireReportBytes)[:n+datapath.WireReportBytes]
	datapath.EncodeReport(b.b[n:], seq, unixNanos, rep)
	b.flows = append(b.flows, f)
}

// writePending is the write turn: until nothing is pending, swap the
// pending batch for the spare, send it outside wmu (so flows keep
// appending meanwhile), and keep its buffers as the next spare.
func (c *ServeConn) writePending() {
	c.wmu.Lock()
	for len(c.pending.flows) > 0 {
		out := c.pending
		c.pending, c.spare = c.spare, reportBatch{}
		c.wmu.Unlock()
		c.send(out)
		c.wmu.Lock()
		c.spare = reportBatch{b: out.b[:0], flows: out.flows[:0]}
	}
	c.writing = false
	c.wmu.Unlock()
}

// send writes a batch as datagrams of at most maxReportRecords records. A
// failed write fails each flow it carried at once, posting the error for
// its seq without blocking (as deliver posts replies); otherwise only the
// writer would see it, and the others would wait out their timeouts.
func (c *ServeConn) send(out reportBatch) {
	for i := 0; i < len(out.flows); i += maxReportRecords {
		j := min(i+maxReportRecords, len(out.flows))
		dgram := out.b[i*datapath.WireReportBytes : j*datapath.WireReportBytes]
		_, err := c.conn.Write(dgram)
		if err == nil {
			continue
		}
		for k, f := range out.flows[i:j] {
			_, seq, _ := datapath.DecodeHeader(dgram[k*datapath.WireReportBytes:])
			select {
			case f.ch <- rateReply{seq: seq, err: err}:
			default: // full of stale replies: the flow times out instead
			}
		}
	}
}

// FailoverConfig tunes a flow's retry/backoff/fallback behaviour. Zero
// fields keep their defaults.
type FailoverConfig struct {
	// Timeout is the per-attempt wait for a rate reply (default 150ms). A
	// timeout fires in [Timeout, Timeout + Timeout/4], the Timeout/4 of the
	// smallest Timeout among the ServeConn's flows.
	Timeout time.Duration
	// Retries is how many extra attempts a Report makes before the flow
	// fails over to the local controller (default 1; negative means 0).
	Retries int
	// BackoffBase is the first retry (and first recovery-probe) delay;
	// successive delays double up to BackoffMax, each jittered to 50-100%
	// so a daemon restart is not greeted by a synchronized thundering
	// herd. Defaults 50ms / 2s.
	BackoffBase time.Duration
	BackoffMax  time.Duration
	// Seed drives the jitter draw (default 1).
	Seed int64
}

func (c FailoverConfig) withDefaults() FailoverConfig {
	if c.Timeout <= 0 {
		c.Timeout = 150 * time.Millisecond
	}
	if c.Retries < 0 {
		c.Retries = 0
	}
	if c.BackoffBase <= 0 {
		c.BackoffBase = 50 * time.Millisecond
	}
	if c.BackoffMax <= 0 {
		c.BackoffMax = 2 * time.Second
	}
	if c.BackoffMax < c.BackoffBase {
		c.BackoffMax = c.BackoffBase
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ServeFlowStats is a snapshot of one flow's client counters. Each field
// is one atomic load, so a snapshot taken while the flow reports need not
// be consistent across fields.
type ServeFlowStats struct {
	// Reports counts Report calls; Served those answered by the daemon
	// with a usable rate; Shed those the daemon answered NaN (overload —
	// the rate was left unchanged).
	Reports int64
	Served  int64
	Shed    int64
	// Timeouts counts attempts with no reply; Retries counts extra
	// attempts made before failing over.
	Timeouts int64
	Retries  int64
	// Fallbacks counts failover episodes (learned path lost); the flow
	// then decides FallbackReports intervals with the local AIMD
	// controller until a probe succeeds, which counts one resync.
	Fallbacks       int64
	FallbackReports int64
	Resyncs         int64
	// FallbackActive reports whether the flow is currently degraded.
	FallbackActive bool
	// Epoch is the last model generation observed in a rate reply.
	Epoch uint64
}

// ServeFlow is one flow's failover-capable handle on a ServeConn: Report
// sends the interval to the daemon with per-request timeout and retry, and
// degrades to a local cc.AIMD controller — seeded from the last served
// rate — while the daemon is unreachable, probing with capped exponential
// backoff + jitter and resyncing to the learned path the moment a probe
// gets a reply. Report never fails because the daemon is down; it only
// errors when the ServeConn itself is closed or the status is invalid.
//
// A ServeFlow is owned by one goroutine: like App.Report, calls must be
// serialized (different flows on one ServeConn are free to run
// concurrently). Its counters are atomics written only by that goroutine;
// Stats and the ServeConn's mocc_client_* series read them from any.
type ServeFlow struct {
	conn *ServeConn
	flow uint64
	w    mocc.Weights
	cfg  FailoverConfig
	ch   chan rateReply
	rng  *rand.Rand // jitter source, built on first use

	deadline atomic.Int64 // of the exchange in flight, ns after conn.base; 0 between

	fallback   *cc.AIMD
	lastServed float64 // last rate the daemon answered (0 before the first)
	probeDelay time.Duration
	nextProbe  time.Time

	n        [numCounters]atomic.Int64 // indexed by cReports..cResyncs
	degraded atomic.Bool               // ServeFlowStats.FallbackActive
	epoch    atomic.Uint64             // ServeFlowStats.Epoch
}

// Flow registers a flow id on the shared socket and returns its handle.
// Flow ids must be unique per ServeConn.
func (c *ServeConn) Flow(flow uint64, w mocc.Weights, cfg FailoverConfig) *ServeFlow {
	f := &ServeFlow{
		conn:     c,
		flow:     flow,
		w:        w,
		cfg:      cfg.withDefaults(),
		ch:       make(chan rateReply, 4),
		fallback: cc.NewAIMD(),
	}
	c.mu.Lock()
	c.flows[flow] = f
	// A lower period re-arms a reader parked on a longer one at once.
	if p := max(f.cfg.Timeout/4, 1); c.period == 0 || p < c.period {
		c.period = p
		_ = c.conn.SetReadDeadline(time.Now().Add(p)) // fails only once closed
	}
	c.mu.Unlock()
	return f
}

// SetWeights changes the preference carried by subsequent reports.
func (f *ServeFlow) SetWeights(w mocc.Weights) { f.w = w }

// Stats returns a snapshot of the flow's client counters.
func (f *ServeFlow) Stats() ServeFlowStats {
	return ServeFlowStats{
		Reports:         f.n[cReports].Load(),
		Served:          f.n[cServed].Load(),
		Shed:            f.n[cShed].Load(),
		Timeouts:        f.n[cTimeouts].Load(),
		Retries:         f.n[cRetries].Load(),
		Fallbacks:       f.n[cFallbacks].Load(),
		FallbackReports: f.n[cFallbackReports].Load(),
		Resyncs:         f.n[cResyncs].Load(),
		FallbackActive:  f.degraded.Load(),
		Epoch:           f.epoch.Load(),
	}
}

// jitter spreads d over [d/2, d). The source is built on the first retry
// or failover: it is ≈ 5 KB per flow, and most flows never need it.
func (f *ServeFlow) jitter(d time.Duration) time.Duration {
	if f.rng == nil {
		f.rng = rand.New(rand.NewSource(f.cfg.Seed + int64(f.flow)))
	}
	return d/2 + time.Duration(f.rng.Float64()*float64(d/2))
}

// Report closes one monitor interval: the daemon's learned decision when
// reachable, the local fallback when not. See the type comment for the
// failover contract.
func (f *ServeFlow) Report(st mocc.Status) (float64, error) {
	lat := f.conn.latency
	if lat == nil {
		return f.report(st)
	}
	start := time.Now()
	rate, err := f.report(st)
	lat.Observe(uint64(time.Since(start)))
	return rate, err
}

// report is Report without the latency observation wrapper.
func (f *ServeFlow) report(st mocc.Status) (float64, error) {
	if f.conn.closed.Load() {
		return 0, net.ErrClosed
	}
	if st.Duration <= 0 {
		return 0, fmt.Errorf("transport: serve report: Duration %v must be positive", st.Duration)
	}
	f.n[cReports].Add(1)
	rep := wireReport(f.flow, f.w, st)

	if f.degraded.Load() {
		if time.Now().Before(f.nextProbe) {
			return f.fallbackDecide(st), nil
		}
		// Probe the daemon: one attempt, no retries — a dead daemon must
		// not stall the flow's monitor loop for more than one timeout.
		r, ok, err := f.request(rep)
		if err != nil {
			return 0, err
		}
		if !ok {
			f.n[cTimeouts].Add(1)
			if f.probeDelay *= 2; f.probeDelay > f.cfg.BackoffMax {
				f.probeDelay = f.cfg.BackoffMax
			}
			f.nextProbe = time.Now().Add(f.jitter(f.probeDelay))
			return f.fallbackDecide(st), nil
		}
		// The daemon answered: resync to the learned path.
		f.degraded.Store(false)
		f.n[cResyncs].Add(1)
		f.conn.events.Emit(obs.Event{Type: obs.EvResync, App: f.flow, Epoch: r.epoch,
			Msg: "daemon reachable again; flow resynced to the learned path"})
		return f.serveDecide(r, st), nil
	}

	backoff := f.cfg.BackoffBase
	for attempt := 0; ; attempt++ {
		r, ok, err := f.request(rep)
		if err != nil {
			return 0, err
		}
		if ok {
			return f.serveDecide(r, st), nil
		}
		f.n[cTimeouts].Add(1)
		if attempt >= f.cfg.Retries {
			break
		}
		f.n[cRetries].Add(1)
		time.Sleep(f.jitter(backoff))
		if backoff *= 2; backoff > f.cfg.BackoffMax {
			backoff = f.cfg.BackoffMax
		}
	}
	// Every attempt timed out: fail over to the local controller.
	f.degraded.Store(true)
	f.probeDelay = f.cfg.BackoffBase
	f.nextProbe = time.Now().Add(f.jitter(f.probeDelay))
	f.n[cFallbacks].Add(1)
	f.conn.events.Emit(obs.Event{Type: obs.EvFailover, App: f.flow,
		Msg: fmt.Sprintf("daemon unreachable after %d attempts; flow degraded to the local controller", f.cfg.Retries+1)})
	return f.fallbackDecide(st), nil
}

// serveDecide applies one daemon reply. A NaN rate is the daemon shedding
// under overload: the rate is left unchanged, exactly the safe-mode
// convention the serving engine documents.
func (f *ServeFlow) serveDecide(r rateReply, st mocc.Status) float64 {
	f.epoch.Store(r.epoch)
	if math.IsNaN(r.rate) {
		f.n[cShed].Add(1)
		if f.lastServed > 0 {
			return f.lastServed
		}
		// Shed before any served decision: nothing to hold, use the
		// fallback controller's opinion (without a failover episode).
		return f.fallback.Update(ccReport(st))
	}
	f.lastServed = r.rate
	// Keep the fallback controller seeded at the served operating point,
	// so a later failover continues from the last known-good rate instead
	// of restarting from the initial window.
	f.fallback.SetRate(r.rate)
	f.n[cServed].Add(1)
	return r.rate
}

// fallbackDecide closes the interval with the local AIMD controller.
func (f *ServeFlow) fallbackDecide(st mocc.Status) float64 {
	f.n[cFallbackReports].Add(1)
	return f.fallback.Update(ccReport(st))
}

// wireReport packs a flow's preference and interval into the wire form.
func wireReport(flow uint64, w mocc.Weights, st mocc.Status) datapath.WireReport {
	return datapath.WireReport{
		Flow: flow,
		Thr:  w.Thr, Lat: w.Lat, Loss: w.Loss,
		DurationNs: st.Duration.Nanoseconds(),
		Sent:       st.PacketsSent,
		Acked:      st.PacketsAcked,
		Lost:       st.PacketsLost,
		AvgRTTNs:   st.AvgRTT.Nanoseconds(),
		MinRTTNs:   st.MinRTT.Nanoseconds(),
	}
}

// ccReport converts a public Status into the internal controller report.
func ccReport(st mocc.Status) cc.Report {
	return cc.IntervalReport(st.Duration, st.PacketsSent, st.PacketsAcked, st.PacketsLost, st.AvgRTT, st.MinRTT)
}
