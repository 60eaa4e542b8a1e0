package transport

import (
	"errors"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/internal/datapath"
)

// RateServer hosts a serving *mocc.Library as a shared rate-decision daemon
// on a UDP socket: flows send report datagrams (preference + one monitor
// interval of measurements) and get rate datagrams back, with concurrent
// flows' decisions coalesced by the library's serving engine. It is the
// engine room of cmd/mocc-serve, exported so resilience tests (and other
// embedders) can start, kill and restart a daemon in-process.
//
// Flows are registered lazily on first report, keyed by (source address,
// flow id); a flow evicted by the library's idle janitor simply
// re-registers on its next report. Each flow's reports are serialized by a
// per-session worker goroutine with a small buffer, so a slow decision
// (one batch flush) never blocks the socket read loop — a full session
// buffer drops the report instead (the flow retries next interval).
//
// The read loop never trusts the network: datagrams that are short, carry
// the wrong magic, are truncated below the report length, or are of a
// non-report type are counted and dropped, never parsed past their bounds.
type RateServer struct {
	lib  *mocc.Library
	conn *net.UDPConn

	mu       sync.Mutex
	sessions map[sessionKey]*session

	started atomic.Bool
	done    chan struct{} // closed when Serve has exited and sessions are stopped

	replies   atomic.Int64
	dropped   atomic.Int64
	rejected  atomic.Int64
	malformed atomic.Int64
	foreign   atomic.Int64
	invalid   atomic.Int64
}

// RateServerStats is a point-in-time snapshot of daemon counters.
type RateServerStats struct {
	// Sessions is the number of currently registered flow sessions.
	Sessions int
	// Replies counts rate datagrams sent; Dropped counts reports dropped
	// on a full session queue (socket backpressure); Rejected counts
	// registrations refused (invalid preference weights).
	Replies  int64
	Dropped  int64
	Rejected int64
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
	addr string
	flow uint64
}

// session is one registered flow: its library handle and the channel its
// worker goroutine consumes.
type session struct {
	app  *mocc.App
	addr *net.UDPAddr
	ch   chan reportMsg
	w    mocc.Weights
}

type reportMsg struct {
	seq   uint64
	nanos int64
	rep   datapath.WireReport
}

// NewRateServer wraps an already-bound UDP socket. The caller runs Serve
// (usually in its own goroutine) and shuts down with Close.
func NewRateServer(lib *mocc.Library, conn *net.UDPConn) *RateServer {
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
	reg.CounterFunc("mocc_daemon_replies_total", "Rate datagrams sent to flows.",
		func() uint64 { return uint64(s.replies.Load()) })
	reg.CounterFunc("mocc_daemon_dropped_total", "Reports dropped on a full session queue.",
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
		Sessions:  n,
		Replies:   s.replies.Load(),
		Dropped:   s.dropped.Load(),
		Rejected:  s.rejected.Load(),
		Malformed: s.malformed.Load(),
		Foreign:   s.foreign.Load(),
		Invalid:   s.invalid.Load(),
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
// external close of the conn), then stops every session worker. It is the
// daemon hot path: decode, demux to the session worker, never block.
func (s *RateServer) Serve() {
	s.started.Store(true)
	defer close(s.done)
	defer s.closeSessions()
	buf := make([]byte, 64*1024)
	for {
		n, raddr, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			var nerr net.Error
			if errors.As(err, &nerr) && nerr.Timeout() {
				continue
			}
			return // closed socket (shutdown) or a fatal socket error
		}
		switch classifyDatagram(buf[:n]) {
		case dgramMalformed:
			s.malformed.Add(1)
			continue
		case dgramForeign:
			s.foreign.Add(1)
			continue
		}
		seq, nanos, rep, ok := datapath.DecodeReport(buf[:n])
		if !ok {
			s.malformed.Add(1)
			continue
		}
		sess := s.lookup(sessionKey{raddr.String(), rep.Flow}, raddr, rep)
		if sess == nil {
			continue
		}
		select {
		case sess.ch <- reportMsg{seq: seq, nanos: nanos, rep: rep}:
		default:
			s.dropped.Add(1) // backpressure: drop rather than stall the socket
		}
	}
}

// Close shuts the daemon down: the socket closes, Serve returns and stops
// every session worker, and Close waits for that teardown to finish. The
// library is not closed — it belongs to the caller (and may be resumed
// into a new RateServer after a snapshot restore).
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
func (s *RateServer) lookup(key sessionKey, raddr *net.UDPAddr, rep datapath.WireReport) *session {
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
	laddr := *raddr
	sess := &session{app: app, addr: &laddr, ch: make(chan reportMsg, 16), w: w}
	s.sessions[key] = sess
	go s.runSession(key, sess)
	return sess
}

// drop removes a torn-down session so a later report re-registers.
func (s *RateServer) drop(key sessionKey, sess *session) {
	s.mu.Lock()
	if s.sessions[key] == sess {
		delete(s.sessions, key)
	}
	s.mu.Unlock()
}

// runSession serializes one flow's Reports and writes the rate replies.
func (s *RateServer) runSession(key sessionKey, sess *session) {
	out := make([]byte, datapath.WireRateBytes)
	for m := range sess.ch {
		if w := (mocc.Weights{Thr: m.rep.Thr, Lat: m.rep.Lat, Loss: m.rep.Loss}); w != sess.w {
			if err := sess.app.SetWeights(w); err == nil {
				sess.w = w
			}
		}
		rate, err := sess.app.Report(mocc.Status{
			Duration:     time.Duration(m.rep.DurationNs),
			PacketsSent:  m.rep.Sent,
			PacketsAcked: m.rep.Acked,
			PacketsLost:  m.rep.Lost,
			AvgRTT:       time.Duration(m.rep.AvgRTTNs),
			MinRTT:       time.Duration(m.rep.MinRTTNs),
		})
		if err != nil {
			// Evicted by the idle janitor (or unregistered): tear the
			// session down; the flow's next report re-registers.
			if _, alive := s.lib.App(sess.app.ID()); !alive {
				s.drop(key, sess)
				return
			}
			// Otherwise the status itself was refused. Answer NaN — "hold
			// the previous rate", as for a shed — so the flow fails fast
			// instead of burning its timeouts and failing over.
			s.invalid.Add(1)
			rate = math.NaN()
		}
		datapath.EncodeRate(out, m.seq, m.nanos, m.rep.Flow, rate, s.lib.Epoch())
		if _, err := s.conn.WriteToUDP(out, sess.addr); err == nil {
			s.replies.Add(1)
		}
	}
}

// closeSessions stops every session worker.
func (s *RateServer) closeSessions() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, sess := range s.sessions {
		close(sess.ch)
		delete(s.sessions, key)
	}
}
