package transport

import (
	"errors"
	"math"
	"net"
	"net/netip"
	"sync"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/internal/datapath"
)

// RateServer hosts a serving *mocc.Library as a shared rate-decision daemon
// on a UDP socket: flows send report datagrams (preference + one monitor
// interval of measurements) and get rate records back, with concurrent
// flows' decisions coalesced by the library's serving engine. It is the
// engine room of cmd/mocc-serve, exported so resilience tests (and other
// embedders) can start, kill and restart a daemon in-process.
//
// Flows are registered lazily on first report, keyed by (source address,
// flow id), in a flat session table; a flow evicted by the library's idle
// janitor simply re-registers on its next report. There is no goroutine per
// flow: the read loop decodes each report record of a datagram (a client
// socket may coalesce several flows' reports into one) and submits it with
// App.ReportAsync, and the serving shard that decides it also sends the
// reply. A flow has at most one report in flight and one waiting behind it,
// so its replies keep report order; a report arriving while both are taken
// is dropped and counted, never allowed to block the socket read loop (the
// flow retries next interval).
//
// Replies are coalesced per served batch: the records one forward pass
// decides for one client socket leave in one datagram (at most
// maxReplyRecords of them), sent when the shard finishes the batch's last
// completion (see answer). A lone report is answered by its own completion
// at once; nothing waits on a timer. The batch boundary is the serving
// engine's, so the library should serve this RateServer alone: a record
// whose batch ends in another host's completion waits for this server's
// next batch end (or Close).
//
// The read loop never trusts the network: datagrams that are short, carry
// the wrong magic, are truncated below the report length, or are of a
// non-report type are counted and dropped, never parsed past their bounds;
// the whole records ahead of a trailing partial or invalid one are served.
type RateServer struct {
	lib  *mocc.Library
	conn *net.UDPConn

	mu       sync.Mutex
	sessions map[sessionKey]*session

	started  atomic.Bool
	done     chan struct{}  // closed when Serve has exited and every decision is answered
	inflight sync.WaitGroup // one count per session with a report in flight

	// out holds the replies of the batches in progress, one buffer per
	// destination socket, in first-record order; emptied buffers keep their
	// capacity past len, so the steady state allocates nothing.
	outMu sync.Mutex
	out   []replyBuf

	reportDatagrams atomic.Int64
	replies         atomic.Int64
	replyDatagrams  atomic.Int64
	dropped         atomic.Int64
	rejected        atomic.Int64
	malformed       atomic.Int64
	foreign         atomic.Int64
	invalid         atomic.Int64
}

// RateServerStats is a point-in-time snapshot of daemon counters.
type RateServerStats struct {
	// Sessions is the number of currently registered flow sessions.
	Sessions int
	// ReportDatagrams counts the datagrams that carried reports in: one or
	// more records each, as ServeConn coalesces them, so while nothing is
	// dropped or rejected Replies/ReportDatagrams is the mean coalescing.
	ReportDatagrams int64
	// Replies counts rate records sent, one per answered report;
	// ReplyDatagrams counts the datagrams that carried them (one per client
	// socket per served batch, so Replies/ReplyDatagrams is the mean
	// coalescing). Dropped counts reports dropped because their flow
	// already had one in flight and one waiting (socket backpressure);
	// Rejected counts registrations refused (invalid preference weights).
	Replies        int64
	ReplyDatagrams int64
	Dropped        int64
	Rejected       int64
	// Malformed counts datagrams failing header or length validation
	// (short, wrong magic, truncated report); Foreign counts well-formed
	// datagrams of a non-report type (data/ack/rate sent at the daemon).
	Malformed int64
	Foreign   int64
	// Invalid counts well-formed reports whose status the library refused
	// (e.g. acked+lost exceeding sent); each is answered with a NaN rate
	// so the flow holds its previous rate instead of timing out.
	Invalid int64
}

// sessionKey identifies a flow: the datagram's source address plus its
// self-assigned flow id (many flows may share one socket).
type sessionKey struct {
	addr netip.AddrPort
	flow uint64
}

// session is one registered flow: its library handle and its two report
// slots. The read loop fills the slots under mu; the holder of the
// in-flight slot — the read loop when it starts a decision, the completion
// afterwards — owns w.
type session struct {
	srv   *RateServer
	key   sessionKey
	app   *mocc.App
	reply func(rate float64, err error, more bool) // answer as a func value, built once
	w     mocc.Weights

	mu      sync.Mutex
	busy    bool      // cur is in flight
	waiting bool      // next is queued behind it
	cur     reportMsg // in flight
	next    reportMsg // waiting
}

type reportMsg struct {
	seq   uint64
	nanos int64
	rep   datapath.WireReport
}

// replyBuf is the pending reply datagram of one destination socket: whole
// rate records, back to back.
type replyBuf struct {
	to netip.AddrPort
	b  []byte // len a multiple of WireRateBytes, cap maxReplyBytes
}

// maxReplyRecords caps the rate records in one reply datagram so it fits
// one packet on an IPv6 path with a 1500-byte MTU: (1500 − 40 IPv6 − 8 UDP)
// / WireRateBytes = 34.
const (
	maxReplyRecords = (1500 - 40 - 8) / datapath.WireRateBytes
	maxReplyBytes   = maxReplyRecords * datapath.WireRateBytes
)

// fleetReadBuffer is the SO_RCVBUF asked for on the two sockets that carry
// every flow: the daemon's (all reports) and ServeConn's (all replies). At
// -apps 512 over loopback, default-sized buffers overflowed at both ends:
// the kernel dropped datagrams (Udp RcvbufErrors, the drops column of
// /proc/net/udp) and the flows timed out. The kernel silently caps the
// request at net.core.rmem_max. Best effort: a smaller buffer only means
// drops under a burst, which the flows survive by retrying.
const fleetReadBuffer = 4 << 20

// NewRateServer wraps an already-bound UDP socket. The caller runs Serve
// (usually in its own goroutine) and shuts down with Close.
func NewRateServer(lib *mocc.Library, conn *net.UDPConn) *RateServer {
	_ = conn.SetReadBuffer(fleetReadBuffer) // best effort, see fleetReadBuffer
	return &RateServer{
		lib:      lib,
		conn:     conn,
		sessions: make(map[sessionKey]*session),
		done:     make(chan struct{}),
	}
}

// Addr returns the socket's local address.
func (s *RateServer) Addr() string { return s.conn.LocalAddr().String() }

// RegisterMetrics registers the daemon datagram counters (mocc_daemon_*)
// on the sink. Every series is a scrape-time read of the counters the
// server already keeps, so the socket hot path pays nothing.
func (s *RateServer) RegisterMetrics(m *mocc.Metrics) {
	reg := m.Registry()
	if reg == nil {
		return
	}
	reg.GaugeFunc("mocc_daemon_sessions", "Currently registered flow sessions.",
		func() float64 {
			s.mu.Lock()
			n := len(s.sessions)
			s.mu.Unlock()
			return float64(n)
		})
	reg.CounterFunc("mocc_daemon_report_datagrams_total", "Datagrams carrying report records in: one or more per datagram, from flows sharing a client socket.",
		func() uint64 { return uint64(s.reportDatagrams.Load()) })
	reg.CounterFunc("mocc_daemon_replies_total", "Rate records sent to flows, one per answered report.",
		func() uint64 { return uint64(s.replies.Load()) })
	reg.CounterFunc("mocc_daemon_reply_datagrams_total", "Reply datagrams sent: one per client socket per served batch, carrying its rate records.",
		func() uint64 { return uint64(s.replyDatagrams.Load()) })
	reg.CounterFunc("mocc_daemon_dropped_total", "Reports dropped: their flow already had one in flight and one waiting.",
		func() uint64 { return uint64(s.dropped.Load()) })
	reg.CounterFunc("mocc_daemon_rejected_total", "Flow registrations refused (invalid preference).",
		func() uint64 { return uint64(s.rejected.Load()) })
	reg.CounterFunc("mocc_daemon_malformed_total", "Datagrams failing header or length validation.",
		func() uint64 { return uint64(s.malformed.Load()) })
	reg.CounterFunc("mocc_daemon_foreign_total", "Well-formed datagrams of a non-report type.",
		func() uint64 { return uint64(s.foreign.Load()) })
	reg.CounterFunc("mocc_daemon_invalid_total", "Reports with a status the library refused (answered NaN).",
		func() uint64 { return uint64(s.invalid.Load()) })
}

// Stats returns a snapshot of the daemon counters.
func (s *RateServer) Stats() RateServerStats {
	s.mu.Lock()
	n := len(s.sessions)
	s.mu.Unlock()
	return RateServerStats{
		Sessions:        n,
		ReportDatagrams: s.reportDatagrams.Load(),
		Replies:         s.replies.Load(),
		ReplyDatagrams:  s.replyDatagrams.Load(),
		Dropped:         s.dropped.Load(),
		Rejected:        s.rejected.Load(),
		Malformed:       s.malformed.Load(),
		Foreign:         s.foreign.Load(),
		Invalid:         s.invalid.Load(),
	}
}

// dgramKind classifies an inbound daemon datagram.
type dgramKind int

const (
	dgramReport dgramKind = iota
	dgramMalformed
	dgramForeign
)

// classifyDatagram validates an inbound datagram without ever reading past
// its bounds: anything shorter than a header, with the wrong magic, of a
// non-report type, or truncated below the full report length is rejected
// with a classification instead of a panic.
func classifyDatagram(buf []byte) dgramKind {
	typ, _, ok := datapath.DecodeHeader(buf)
	if !ok {
		return dgramMalformed
	}
	if typ != datapath.WireTypeReport {
		return dgramForeign
	}
	if len(buf) < datapath.WireReportBytes {
		return dgramMalformed
	}
	return dgramReport
}

// Serve runs the socket read loop until the socket is closed (Close, or an
// external close of the conn), then waits for every decision in flight to
// be answered. It is the daemon hot path: read, decode, hand the report to
// its session, never block.
func (s *RateServer) Serve() {
	s.started.Store(true)
	defer close(s.done)
	defer s.closeSessions()
	buf := make([]byte, 64*1024)
	for {
		n, from, err := s.conn.ReadFromUDPAddrPort(buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return // closed socket (shutdown) or a fatal socket error
		}
		s.handle(buf[:n], from)
	}
}

// handle is the read loop's per-datagram step: classify the datagram once,
// then walk its report records — one or more, back to back, as ServeConn
// sends the reports of flows woken together — handing each to report. A
// trailing partial or invalid record counts one Malformed, as a reply
// datagram's does in ServeConn.deliver.
func (s *RateServer) handle(buf []byte, from netip.AddrPort) {
	switch classifyDatagram(buf) {
	case dgramMalformed:
		s.malformed.Add(1)
		return
	case dgramForeign:
		s.foreign.Add(1)
		return
	}
	s.reportDatagrams.Add(1)
	for len(buf) > 0 {
		seq, nanos, rep, ok := datapath.DecodeReport(buf)
		if !ok {
			s.malformed.Add(1)
			return
		}
		buf = buf[datapath.WireReportBytes:]
		s.report(from, reportMsg{seq: seq, nanos: nanos, rep: rep})
	}
}

// report finds (or registers) the flow's session and starts the decision,
// or queues it behind the one in flight.
func (s *RateServer) report(from netip.AddrPort, m reportMsg) {
	sess := s.lookup(sessionKey{from, m.rep.Flow}, m.rep)
	if sess == nil {
		return
	}
	sess.mu.Lock()
	switch {
	case !sess.busy:
		sess.busy, sess.cur = true, m
		sess.mu.Unlock()
		s.inflight.Add(1)
		sess.submit()
	case !sess.waiting:
		sess.waiting, sess.next = true, m
		sess.mu.Unlock()
	default:
		sess.mu.Unlock()
		s.dropped.Add(1) // backpressure: drop rather than stall the socket
	}
}

// Close shuts the daemon down: the socket closes, Serve returns once every
// decision in flight is answered, and Close waits for that. The library is
// not closed — it belongs to the caller (and may be resumed into a new
// RateServer after a snapshot restore).
func (s *RateServer) Close() error {
	err := s.conn.Close()
	if s.started.Load() {
		<-s.done
	} else {
		s.closeSessions()
	}
	return err
}

// lookup returns the flow's session, registering it on first contact.
func (s *RateServer) lookup(key sessionKey, rep datapath.WireReport) *session {
	s.mu.Lock()
	defer s.mu.Unlock()
	if sess, ok := s.sessions[key]; ok {
		return sess
	}
	w := mocc.Weights{Thr: rep.Thr, Lat: rep.Lat, Loss: rep.Loss}
	app, err := s.lib.Register(w)
	if err != nil {
		s.rejected.Add(1)
		return nil
	}
	sess := &session{srv: s, key: key, app: app, w: w}
	sess.reply = sess.answer
	s.sessions[key] = sess
	return sess
}

// drop removes a torn-down session so a later report re-registers.
func (s *RateServer) drop(sess *session) {
	s.mu.Lock()
	if s.sessions[sess.key] == sess {
		delete(s.sessions, sess.key)
	}
	s.mu.Unlock()
}

// submit hands the in-flight report to the library; answer completes it.
func (sess *session) submit() {
	r := &sess.cur.rep
	if w := (mocc.Weights{Thr: r.Thr, Lat: r.Lat, Loss: r.Loss}); w != sess.w {
		if err := sess.app.SetWeights(w); err == nil {
			sess.w = w
		}
	}
	sess.app.ReportAsync(mocc.Status{
		Duration:     time.Duration(r.DurationNs),
		PacketsSent:  r.Sent,
		PacketsAcked: r.Acked,
		PacketsLost:  r.Lost,
		AvgRTT:       time.Duration(r.AvgRTTNs),
		MinRTT:       time.Duration(r.MinRTTNs),
	}, sess.reply)
}

// answer is the in-flight report's completion, run by the serving shard
// that decided it (or by the caller of submit when the library answered at
// once): queue the flow's rate record for its socket, then submit the
// waiting report, if any. more is the engine's batch boundary: while it is
// true the shard's next completion belongs to the same forward pass, so
// the record waits to share a datagram; false sends every pending datagram.
// It must not block beyond the socket writes.
func (sess *session) answer(rate float64, err error, more bool) {
	s := sess.srv
	m := &sess.cur
	if err != nil {
		if _, alive := s.lib.App(sess.app.ID()); !alive {
			// Evicted by the idle janitor (or unregistered): tear the
			// session down unanswered; the flow's next report re-registers.
			// An error is an answer at the door, never a served batch's
			// last completion, so no pending reply waits for this one.
			s.drop(sess)
			sess.advance()
			return
		}
		// Otherwise the status itself was refused. Answer NaN — "hold the
		// previous rate", as for a shed — so the flow fails fast instead
		// of burning its timeouts and failing over.
		s.invalid.Add(1)
		rate = math.NaN()
	}
	var rec [datapath.WireRateBytes]byte
	datapath.EncodeRate(rec[:], m.seq, m.nanos, m.rep.Flow, rate, s.lib.Epoch())
	s.outMu.Lock()
	p := s.pendingFor(sess.key.addr)
	p.b = append(p.b, rec[:]...)
	if !more || len(p.b) == maxReplyBytes {
		s.flushLocked()
	}
	s.outMu.Unlock()
	sess.advance()
}

// pendingFor returns to's pending reply datagram, starting one (on a
// recycled buffer when there is one) if to has no records waiting. Called
// under outMu.
func (s *RateServer) pendingFor(to netip.AddrPort) *replyBuf {
	for i := range s.out {
		if s.out[i].to == to {
			return &s.out[i]
		}
	}
	if len(s.out) < cap(s.out) {
		s.out = s.out[:len(s.out)+1]
	} else {
		s.out = append(s.out, replyBuf{b: make([]byte, 0, maxReplyBytes)})
	}
	p := &s.out[len(s.out)-1]
	p.to = to
	return p
}

// flushLocked sends every pending reply datagram and empties the pending
// list, keeping the buffers. Called under outMu. A failed write loses its
// records, as a lost datagram would; the flows retry on their timeouts.
func (s *RateServer) flushLocked() {
	for i := range s.out {
		p := &s.out[i]
		if _, err := s.conn.WriteToUDPAddrPort(p.b, p.to); err == nil {
			s.replies.Add(int64(len(p.b) / datapath.WireRateBytes))
			s.replyDatagrams.Add(1)
		}
		p.b = p.b[:0]
	}
	s.out = s.out[:0]
}

// advance retires the in-flight report: the waiting one, if any, takes its
// place and is submitted; otherwise the session goes idle.
func (sess *session) advance() {
	sess.mu.Lock()
	next := sess.waiting
	if next {
		sess.cur = sess.next
	}
	sess.busy, sess.waiting = next, false
	sess.mu.Unlock()
	if next {
		sess.submit()
	} else {
		sess.srv.inflight.Done()
	}
}

// closeSessions runs once the read loop has exited: it waits until every
// decision in flight, and the report waiting behind it, is answered, sends
// any reply still pending (its batch ended in another host's completion),
// then empties the session table.
func (s *RateServer) closeSessions() {
	s.inflight.Wait()
	s.outMu.Lock()
	s.flushLocked()
	s.outMu.Unlock()
	s.mu.Lock()
	clear(s.sessions)
	s.mu.Unlock()
}
