package datapath

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"
	"time"
)

// FuzzWireDecode feeds arbitrary datagrams to every decoder: none may
// panic, DecodeHeader accepts exactly the datagrams of at least header
// length that carry the magic byte, and every accepted data header, ack,
// report or rate re-encodes to the datagram's leading bytes — NaN payload
// bits included.
// The seeds (one valid datagram of each type, truncations, a foreign magic
// byte) run with every `go test`.
func FuzzWireDecode(f *testing.F) {
	data := make([]byte, 64)
	EncodeDataHeader(data, 1, 2)
	ack := make([]byte, WireHeaderBytes)
	EncodeAck(ack, 3, -4)
	report := make([]byte, WireReportBytes)
	EncodeReport(report, 5, 6, WireReport{
		Flow: 7, Thr: 0.8, Lat: math.NaN(), Loss: math.Float64frombits(0x7ff4000000000001),
		DurationNs: 20e6, Sent: 10, Acked: 9, Lost: math.Inf(-1), AvgRTTNs: 1, MinRTTNs: -1,
	})
	rate := make([]byte, WireRateBytes)
	EncodeRate(rate, 8, 9, 10, math.Float64frombits(0xfff8000000000bad), 11)
	for _, pkt := range [][]byte{data, ack, report, rate} {
		f.Add(pkt)
		f.Add(pkt[:len(pkt)-1])
		f.Add(pkt[:WireHeaderBytes-1])
		foreign := append([]byte(nil), pkt...)
		foreign[0] = 0xAD
		f.Add(foreign)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, b []byte) {
		typ, seq, ok := DecodeHeader(b)
		if want := len(b) >= WireHeaderBytes && b[0] == WireMagic; ok != want {
			t.Fatalf("DecodeHeader ok = %v, want %v for %x", ok, want, b)
		}
		if ok && (typ != b[1] || seq != binary.BigEndian.Uint64(b[2:10])) {
			t.Fatalf("DecodeHeader = (%d, %d) for %x", typ, seq, b)
		}
		if seq, nanos, ok := DecodeData(b); ok {
			out := make([]byte, WireHeaderBytes)
			EncodeDataHeader(out, seq, nanos)
			if !bytes.Equal(out, b[:WireHeaderBytes]) {
				t.Fatalf("data header re-encodes to %x, want %x", out, b[:WireHeaderBytes])
			}
		}
		if seq, nanos, ok := DecodeAck(b); ok {
			out := make([]byte, WireHeaderBytes)
			EncodeAck(out, seq, nanos)
			if !bytes.Equal(out, b[:WireHeaderBytes]) {
				t.Fatalf("ack re-encodes to %x, want %x", out, b[:WireHeaderBytes])
			}
		}
		if seq, nanos, r, ok := DecodeReport(b); ok {
			out := make([]byte, WireReportBytes)
			EncodeReport(out, seq, nanos, r)
			if !bytes.Equal(out, b[:WireReportBytes]) {
				t.Fatalf("report re-encodes to %x, want %x", out, b[:WireReportBytes])
			}
		}
		if seq, nanos, flow, rate, epoch, ok := DecodeRate(b); ok {
			out := make([]byte, WireRateBytes)
			EncodeRate(out, seq, nanos, flow, rate, epoch)
			if !bytes.Equal(out, b[:WireRateBytes]) {
				t.Fatalf("rate re-encodes to %x, want %x", out, b[:WireRateBytes])
			}
		}
	})
}

// TestReportRoundTrip pins the report datagram encoding: every field
// survives bit-exactly, the length matches the declared constant, and the
// generic header decoder classifies it.
func TestReportRoundTrip(t *testing.T) {
	r := WireReport{
		Flow: 0xDEADBEEF12345678,
		Thr:  0.8, Lat: 0.1, Loss: 0.1,
		DurationNs: (40 * time.Millisecond).Nanoseconds(),
		Sent:       51.5, Acked: 50, Lost: 1.5,
		AvgRTTNs: (45 * time.Millisecond).Nanoseconds(),
		MinRTTNs: (40 * time.Millisecond).Nanoseconds(),
	}
	pkt := make([]byte, WireReportBytes)
	if n := EncodeReport(pkt, 7, 123456789, r); n != WireReportBytes {
		t.Fatalf("EncodeReport length %d, want %d", n, WireReportBytes)
	}
	if typ, seq, ok := DecodeHeader(pkt); !ok || typ != WireTypeReport || seq != 7 {
		t.Fatalf("DecodeHeader = (%d, %d, %v)", typ, seq, ok)
	}
	seq, nanos, got, ok := DecodeReport(pkt)
	if !ok || seq != 7 || nanos != 123456789 {
		t.Fatalf("DecodeReport header = (%d, %d, %v)", seq, nanos, ok)
	}
	if got != r {
		t.Fatalf("DecodeReport payload = %+v, want %+v", got, r)
	}
}

// TestRateRoundTrip pins the rate-decision datagram encoding.
func TestRateRoundTrip(t *testing.T) {
	pkt := make([]byte, WireRateBytes)
	if n := EncodeRate(pkt, 9, 42, 31337, 812.25, 3); n != WireRateBytes {
		t.Fatalf("EncodeRate length %d, want %d", n, WireRateBytes)
	}
	seq, nanos, flow, rate, epoch, ok := DecodeRate(pkt)
	if !ok || seq != 9 || nanos != 42 || flow != 31337 || rate != 812.25 || epoch != 3 {
		t.Fatalf("DecodeRate = (%d, %d, %d, %v, %d, %v)", seq, nanos, flow, rate, epoch, ok)
	}
}

// TestControlPlaneDecodeRejects covers cross-type and malformed datagrams:
// each decoder must refuse the other's packets, short reads, and foreign
// magic.
func TestControlPlaneDecodeRejects(t *testing.T) {
	report := make([]byte, WireReportBytes)
	EncodeReport(report, 1, 2, WireReport{Flow: 3})
	rate := make([]byte, WireRateBytes)
	EncodeRate(rate, 1, 2, 3, 4, 5)

	if _, _, _, _, _, ok := DecodeRate(report); ok {
		t.Fatal("DecodeRate accepted a report datagram")
	}
	if _, _, _, ok := DecodeReport(rate); ok {
		t.Fatal("DecodeReport accepted a rate datagram")
	}
	if _, _, _, ok := DecodeReport(report[:WireReportBytes-1]); ok {
		t.Fatal("DecodeReport accepted a truncated datagram")
	}
	bad := append([]byte(nil), report...)
	bad[0] = 0x00
	if _, _, _, ok := DecodeReport(bad); ok {
		t.Fatal("DecodeReport accepted foreign magic")
	}
	ack := make([]byte, WireHeaderBytes)
	EncodeAck(ack, 1, 2)
	if _, _, _, ok := DecodeReport(ack); ok {
		t.Fatal("DecodeReport accepted an ack")
	}
}
