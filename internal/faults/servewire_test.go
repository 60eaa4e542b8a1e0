package faults

import (
	"bytes"
	"testing"

	"mocc/internal/datapath"
)

// reportPkt / ratePkt build mocc-serve control-plane datagrams, the second
// traffic class the wire injectors classify (reports on the write side like
// data, rates on the read side like acks).
func reportPkt(seq uint64) []byte {
	pkt := make([]byte, datapath.WireReportBytes)
	datapath.EncodeReport(pkt, seq, int64(seq)*1000, datapath.WireReport{
		Flow: 1, Thr: 0.4, Lat: 0.3, Loss: 0.3,
		DurationNs: 40e6, Sent: 50, Acked: 50, AvgRTTNs: 45e6, MinRTTNs: 40e6,
	})
	return pkt
}

func ratePkt(seq uint64) []byte {
	pkt := make([]byte, datapath.WireRateBytes)
	datapath.EncodeRate(pkt, seq, int64(seq)*1000, 1, 500, 1)
	return pkt
}

// TestBlackoutSwallowsReportsAndRates pins the control-plane arm of the
// blackout injector: report datagrams inside the window are swallowed after
// a successful-looking send, rate replies inside it never reach the caller,
// and the counters record both under their own names.
func TestBlackoutSwallowsReportsAndRates(t *testing.T) {
	plan := &Plan{Seed: 1, Blackout: &Blackout{Windows: []Window{{From: 3, To: 6}}}}
	inner := &scriptConn{}
	for _, s := range ackSeqs(t, 8) {
		inner.in = append(inner.in, ratePkt(s))
	}
	fc := plan.WrapConn(inner)

	for _, s := range ackSeqs(t, 8) {
		if n, err := fc.Write(reportPkt(s)); err != nil || n != datapath.WireReportBytes {
			t.Fatalf("Write(seq=%d) = (%d, %v)", s, n, err)
		}
	}
	if got, want := len(inner.out), 5; got != want {
		t.Fatalf("forwarded %d reports, want %d (seqs 3,4,5 swallowed)", got, want)
	}
	for _, pkt := range inner.out {
		_, seq, _ := datapath.DecodeHeader(pkt)
		if seq >= 3 && seq < 6 {
			t.Fatalf("blacked-out report %d reached the wire", seq)
		}
	}

	var delivered []uint64
	for _, pkt := range readAll(fc) {
		_, seq, _ := datapath.DecodeHeader(pkt)
		delivered = append(delivered, seq)
	}
	if got, want := len(delivered), 5; got != want {
		t.Fatalf("delivered %d rates, want %d", got, want)
	}
	for _, seq := range delivered {
		if seq >= 3 && seq < 6 {
			t.Fatalf("rate for blacked-out seq %d delivered", seq)
		}
	}

	st := fc.Stats()
	if st.ReportsSwallowed != 3 || st.RatesDropped != 3 {
		t.Fatalf("stats = %+v, want 3 reports swallowed / 3 rates dropped", st)
	}
	if st.DataSwallowed != 0 || st.AcksDropped != 0 {
		t.Fatalf("control-plane faults leaked into data-plane counters: %+v", st)
	}
}

// TestServeWireTamperCounters pins that corruption, duplication, loss bursts
// and reordering applied to control-plane datagrams land in the
// Reports*/Rates* counters, disjoint from the data-plane ones, while the
// plan's injector state stays shared (same seed, same draws).
func TestServeWireTamperCounters(t *testing.T) {
	plan := &Plan{
		Seed:      7,
		AckLoss:   &AckLoss{Prob: 0.3, Burst: 2},
		Duplicate: &Duplicate{Prob: 0.5},
		Reorder:   &Reorder{Prob: 0.3, Delay: 2},
		Corrupt:   &Corrupt{Prob: 0.5, Data: true, Acks: true},
	}
	inner := &scriptConn{}
	for _, s := range ackSeqs(t, 40) {
		inner.in = append(inner.in, ratePkt(s))
	}
	fc := plan.WrapConn(inner)

	for _, s := range ackSeqs(t, 40) {
		if _, err := fc.Write(reportPkt(s)); err != nil {
			t.Fatalf("Write(seq=%d): %v", s, err)
		}
	}
	delivered := readAll(fc)

	st := fc.Stats()
	if st.ReportsCorrupted == 0 || st.ReportsDuplicated == 0 {
		t.Fatalf("write-side injectors never fired on reports: %+v", st)
	}
	if st.RatesDropped == 0 || st.RatesReordered == 0 || st.RatesCorrupted == 0 {
		t.Fatalf("read-side injectors never fired on rates: %+v", st)
	}
	if st.DataCorrupted+st.DataDuplicated+st.AcksDropped+st.AcksCorrupted+st.AcksReordered != 0 {
		t.Fatalf("control-plane faults leaked into data-plane counters: %+v", st)
	}
	if got, want := len(inner.out), 40+st.ReportsDuplicated; got != want {
		t.Fatalf("wire saw %d reports, want %d (40 + %d duplicates)", got, want, st.ReportsDuplicated)
	}
	// Reordered rates are stashed behind later reads; with the script
	// drained, everything except the dropped ones must have come through.
	if got, want := len(delivered), 40-st.RatesDropped; got > want {
		t.Fatalf("delivered %d rates, want <= %d", got, want)
	}
}

// coalesce joins rate datagrams back to back into one, as the daemon sends
// the records of one served batch.
func coalesce(pkts ...[]byte) []byte {
	var out []byte
	for _, p := range pkts {
		out = append(out, p...)
	}
	return out
}

// TestFaultConnSplitsCoalescedRates pins the read-side injectors per reply:
// a rate datagram carrying several records is split into them, so a
// blackout covering the middle record of three drops that record alone,
// and every plan sees the stream of one record per Read that single-record
// datagrams give — the same delivered bytes and the same ConnStats.
func TestFaultConnSplitsCoalescedRates(t *testing.T) {
	blackout := &Plan{Seed: 1, Blackout: &Blackout{Windows: []Window{{From: 2, To: 3}}}}
	fc := blackout.WrapConn(&scriptConn{in: [][]byte{coalesce(ratePkt(1), ratePkt(2), ratePkt(3))}})
	var delivered []uint64
	for _, pkt := range readAll(fc) {
		if len(pkt) != datapath.WireRateBytes {
			t.Fatalf("Read handed up %d bytes, want one %d-byte record", len(pkt), datapath.WireRateBytes)
		}
		_, seq, _ := datapath.DecodeHeader(pkt)
		delivered = append(delivered, seq)
	}
	if len(delivered) != 2 || delivered[0] != 1 || delivered[1] != 3 {
		t.Fatalf("delivered seqs %v, want [1 3]", delivered)
	}
	if st := fc.Stats(); st != (ConnStats{RatesDropped: 1}) {
		t.Fatalf("stats %+v, want one rate dropped", st)
	}

	plans := []*Plan{
		blackout,
		{
			Seed:     99,
			AckLoss:  &AckLoss{Prob: 0.1, Burst: 2},
			Reorder:  &Reorder{Prob: 0.1, Delay: 3},
			Corrupt:  &Corrupt{Prob: 0.1, Acks: true},
			Blackout: &Blackout{Windows: []Window{{From: 40, To: 60}}},
		},
	}
	for _, plan := range plans {
		var single, grouped scriptConn
		for first := uint64(1); first <= 200; {
			var group [][]byte
			for k := 0; k < int(first%34)+1 && first <= 200; k++ {
				group = append(group, ratePkt(first))
				first++
			}
			single.in = append(single.in, group...)
			grouped.in = append(grouped.in, coalesce(group...))
		}
		a, b := plan.WrapConn(&single), plan.WrapConn(&grouped)
		outA, outB := readAll(a), readAll(b)
		if a.Stats() != b.Stats() {
			t.Fatalf("seed %d: stats single %+v, coalesced %+v", plan.Seed, a.Stats(), b.Stats())
		}
		if len(outA) != len(outB) {
			t.Fatalf("seed %d: delivered %d single, %d coalesced", plan.Seed, len(outA), len(outB))
		}
		for i := range outA {
			if !bytes.Equal(outA[i], outB[i]) {
				t.Fatalf("seed %d: delivered record %d differs: %x vs %x", plan.Seed, i, outA[i], outB[i])
			}
		}
	}
}

// TestFaultConnSplitsCoalescedReports pins the write-side injectors per
// report: a report datagram carrying several records is split into them,
// so a blackout covering the middle record of three swallows that record
// alone, and a plan judges the records exactly as it judges the same
// reports sent one per datagram — the same bytes reach the wire, and the
// same ConnStats.
func TestFaultConnSplitsCoalescedReports(t *testing.T) {
	blackout := &Plan{Seed: 1, Blackout: &Blackout{Windows: []Window{{From: 2, To: 3}}}}
	inner := &scriptConn{}
	fc := blackout.WrapConn(inner)
	dgram := coalesce(reportPkt(1), reportPkt(2), reportPkt(3))
	if n, err := fc.Write(dgram); err != nil || n != len(dgram) {
		t.Fatalf("Write = (%d, %v), want (%d, nil)", n, err, len(dgram))
	}
	if len(inner.out) != 2 || !bytes.Equal(inner.out[0], reportPkt(1)) || !bytes.Equal(inner.out[1], reportPkt(3)) {
		t.Fatalf("wire saw %d writes %x, want reports 1 and 3", len(inner.out), inner.out)
	}
	if st := fc.Stats(); st != (ConnStats{ReportsSwallowed: 1}) {
		t.Fatalf("stats %+v, want one report swallowed", st)
	}

	plans := []*Plan{
		blackout,
		{
			Seed:      99,
			Duplicate: &Duplicate{Prob: 0.1},
			Corrupt:   &Corrupt{Prob: 0.1, Data: true},
			Blackout:  &Blackout{Windows: []Window{{From: 40, To: 60}}},
		},
	}
	for _, plan := range plans {
		var single, grouped scriptConn
		a, b := plan.WrapConn(&single), plan.WrapConn(&grouped)
		for first := uint64(1); first <= 200; {
			var group [][]byte
			for k := 0; k < int(first%14)+1 && first <= 200; k++ {
				group = append(group, reportPkt(first))
				first++
			}
			for _, pkt := range group {
				if _, err := a.Write(pkt); err != nil {
					t.Fatal(err)
				}
			}
			if _, err := b.Write(coalesce(group...)); err != nil {
				t.Fatal(err)
			}
		}
		if a.Stats() != b.Stats() {
			t.Fatalf("seed %d: stats single %+v, coalesced %+v", plan.Seed, a.Stats(), b.Stats())
		}
		if st := a.Stats(); plan.Duplicate != nil && (st.ReportsSwallowed == 0 || st.ReportsCorrupted == 0 || st.ReportsDuplicated == 0) {
			t.Fatalf("seed %d: an injector never fired: %+v", plan.Seed, st)
		}
		if len(single.out) != len(grouped.out) {
			t.Fatalf("seed %d: wire saw %d single, %d coalesced", plan.Seed, len(single.out), len(grouped.out))
		}
		for i := range single.out {
			if !bytes.Equal(single.out[i], grouped.out[i]) {
				t.Fatalf("seed %d: written record %d differs: %x vs %x", plan.Seed, i, single.out[i], grouped.out[i])
			}
		}
	}
}
