package transport

import (
	"math"
	"net"
	"net/netip"
	"path/filepath"
	"testing"
	"time"

	"mocc"
	"mocc/internal/core"
	"mocc/internal/datapath"
	"mocc/internal/objective"
)

// FuzzRateServerDatagram feeds arbitrary datagrams to the daemon's
// per-datagram step, each twice from one of two source sockets, on a
// library without serving (so every decision completes inside handle).
// handle must not panic. A datagram that does not open with a whole valid
// report record moves the malformed+foreign counters by exactly one and
// touches nothing else. Otherwise it counts one report datagram, and each
// of its leading whole valid records lands in the session keyed by its
// source and flow — registering it, or finding it registered by an earlier
// record — or counts one rejection; anything after them (a partial or
// invalid record) counts exactly one Malformed. The seeds (one per datagram
// class: short, bad magic, foreign type, truncated report, valid report,
// NaN weights; then two flows, 14 records, a trailing partial, bad magic in
// record 2 and the same flow twice) run with every `go test`.
func FuzzRateServerDatagram(f *testing.F) {
	path := filepath.Join(f.TempDir(), "model.json")
	if err := core.NewModel(core.HistoryLen, 1).Snapshot().SaveFile(path); err != nil {
		f.Fatal(err)
	}
	model, err := mocc.LoadModelFile(path)
	if err != nil {
		f.Fatal(err)
	}
	lib, err := mocc.New(model, mocc.WithoutAdaptation())
	if err != nil {
		f.Fatal(err)
	}
	listen := func() *net.UDPConn {
		c, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { c.Close() })
		return c
	}
	srv := NewRateServer(lib, listen())
	f.Cleanup(func() { srv.Close() })
	// Replies go to two sockets nobody reads; the kernel drops what
	// overflows their buffers.
	var sources [2]netip.AddrPort
	for i := range sources {
		sources[i] = listen().LocalAddr().(*net.UDPAddr).AddrPort()
	}

	report := func(mut func(*datapath.WireReport)) []byte {
		r := datapath.WireReport{
			Flow: 7, Thr: 0.4, Lat: 0.3, Loss: 0.3,
			DurationNs: int64(40 * time.Millisecond), Sent: 50, Acked: 48, Lost: 1,
			AvgRTTNs: int64(45 * time.Millisecond), MinRTTNs: int64(40 * time.Millisecond),
		}
		if mut != nil {
			mut(&r)
		}
		pkt := make([]byte, datapath.WireReportBytes)
		datapath.EncodeReport(pkt, 1, 2, r)
		return pkt
	}
	flow := func(id uint64) []byte { return report(func(r *datapath.WireReport) { r.Flow = id }) }
	valid := report(nil)
	badMagic := append([]byte(nil), valid...)
	badMagic[0] ^= 0xFF
	foreign := append([]byte(nil), valid...)
	foreign[1] = datapath.WireTypeAck
	var fourteen []byte
	for id := uint64(1); id <= maxReportRecords; id++ {
		fourteen = append(fourteen, flow(id)...)
	}
	f.Add([]byte{datapath.WireMagic}, false)
	f.Add(badMagic, false)
	f.Add(foreign, true)
	f.Add(valid[:datapath.WireReportBytes-1], false)
	f.Add(valid, true)
	f.Add(report(func(r *datapath.WireReport) { r.Lat = math.NaN() }), false)
	f.Add(append(flow(1), flow(2)...), false)
	f.Add(fourteen, true)
	f.Add(append(flow(1), valid[:40]...), false)
	f.Add(append(flow(1), badMagic...), true)
	f.Add(append(valid, valid...), false)

	f.Fuzz(func(t *testing.T, b []byte, second bool) {
		from := sources[0]
		if second {
			from = sources[1]
		}
		defer func() {
			for _, sess := range srv.sessions {
				sess.app.Unregister()
			}
			clear(srv.sessions)
		}()
		// The oracle's walk: the whole valid report records b opens with,
		// and what follows them.
		var recs []datapath.WireReport
		rest := b
		for {
			_, _, rep, ok := datapath.DecodeReport(rest)
			if !ok {
				break
			}
			recs = append(recs, rep)
			rest = rest[datapath.WireReportBytes:]
		}
		registered := map[uint64]bool{} // flows with a session, across both rounds
		for round := 0; round < 2; round++ {
			before := srv.Stats()
			srv.handle(b, from)
			after := srv.Stats()
			classified := after.Malformed + after.Foreign - before.Malformed - before.Foreign
			if len(recs) == 0 {
				rest := after
				rest.Malformed, rest.Foreign = before.Malformed, before.Foreign
				if classified != 1 || rest != before {
					t.Fatalf("round %d: %x is not a report; stats %+v -> %+v", round, b, before, after)
				}
				continue
			}
			var rejected int64
			for _, rep := range recs {
				if registered[rep.Flow] {
					continue
				}
				if _, err := objective.New(rep.Thr, rep.Lat, rep.Loss); err != nil {
					rejected++
				} else {
					registered[rep.Flow] = true
				}
			}
			var malformed int64
			if len(rest) > 0 {
				malformed = 1
			}
			if after.Malformed-before.Malformed != malformed || after.Foreign != before.Foreign ||
				after.ReportDatagrams-before.ReportDatagrams != 1 || after.Dropped != 0 {
				t.Fatalf("round %d: %d records then %d bytes: %+v -> %+v, want one report datagram, %d malformed",
					round, len(recs), len(rest), before, after, malformed)
			}
			if after.Rejected-before.Rejected != rejected || after.Sessions != len(registered) {
				t.Fatalf("round %d: %d records: %+v -> %+v, want %d rejected and %d sessions",
					round, len(recs), before, after, rejected, len(registered))
			}
			for key := range srv.sessions {
				if key.addr != from || !registered[key.flow] {
					t.Fatalf("session keyed %v, want %v and one of the flows %v", key, from, registered)
				}
			}
		}
	})
}

// FuzzServeConnReplies feeds arbitrary reply datagrams to the client's
// per-datagram demux step, with flows 1–3 registered. deliver must not
// panic; each whole valid rate record ahead of the first invalid one
// reaches its own flow's channel and no other, in datagram order (records
// of unknown flows reach none); and a datagram that is empty, or whose tail
// is not whole valid records, counts exactly one Malformed. The seeds (one
// record, 34 records, a trailing partial record, bad magic in record 2, an
// unknown flow, a NaN rate) run with every `go test`.
func FuzzServeConnReplies(f *testing.F) {
	record := func(flow, seq uint64, rate float64) []byte {
		b := make([]byte, datapath.WireRateBytes)
		datapath.EncodeRate(b, seq, 7, flow, rate, 1)
		return b
	}
	var full []byte
	for i := uint64(0); i < maxReplyRecords; i++ {
		full = append(full, record(i%3+1, i, 100+float64(i))...)
	}
	two := append(record(1, 1, 10), record(2, 2, 20)...)
	badMagic := append([]byte(nil), two...)
	badMagic[datapath.WireRateBytes] ^= 0xFF
	f.Add(record(1, 1, 500))
	f.Add(full)
	f.Add(two[:len(two)-5])
	f.Add(badMagic)
	f.Add(record(9, 1, 500))
	f.Add(record(2, 1, math.NaN()))

	f.Fuzz(func(t *testing.T, b []byte) {
		c := &ServeConn{flows: make(map[uint64]*ServeFlow)}
		for flow := uint64(1); flow <= 3; flow++ {
			c.flows[flow] = &ServeFlow{ch: make(chan rateReply, len(b)/datapath.WireRateBytes+1)}
		}
		c.deliver(b)

		want := map[uint64][]rateReply{}
		rest := b
		for len(rest) > 0 {
			seq, nanos, flow, rate, epoch, ok := datapath.DecodeRate(rest)
			if !ok {
				break
			}
			want[flow] = append(want[flow], rateReply{seq: seq, nanos: nanos, rate: rate, epoch: epoch})
			rest = rest[datapath.WireRateBytes:]
		}
		var malformed int64
		if len(b) == 0 || len(rest) > 0 {
			malformed = 1
		}
		if got := c.Malformed(); got != malformed {
			t.Fatalf("%x: Malformed %d, want %d", b, got, malformed)
		}
		for flow, sf := range c.flows {
			close(sf.ch)
			i := 0
			for got := range sf.ch {
				if i >= len(want[flow]) {
					t.Fatalf("%x: flow %d got %d+ records, want %d", b, flow, i+1, len(want[flow]))
				}
				w := want[flow][i]
				if got.seq != w.seq || got.nanos != w.nanos || got.epoch != w.epoch ||
					math.Float64bits(got.rate) != math.Float64bits(w.rate) {
					t.Fatalf("%x: flow %d record %d = %+v, want %+v", b, flow, i, got, w)
				}
				i++
			}
			if i != len(want[flow]) {
				t.Fatalf("%x: flow %d got %d records, want %d", b, flow, i, len(want[flow]))
			}
		}
	})
}
