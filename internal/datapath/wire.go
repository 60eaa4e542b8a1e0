package datapath

import (
	"encoding/binary"
	"math"
)

// Exported wire-format surface. The public mocc/transport data path and the
// mocc-serve control plane speak this one protocol. Every datagram starts
// with the 18-byte header:
//
//	[0]     magic (0xAC)
//	[1]     type: 0 = data, 1 = ack, 2 = report, 3 = rate
//	[2:10]  sequence number (big endian)
//	[10:18] sender timestamp, unix nanos (echoed in acks and rate replies)
//
// Report datagrams carry flows' monitor-interval measurements to a
// mocc-serve daemon; rate datagrams carry the pacing decisions back. Both
// are one or more records back to back, each with its own header. A report
// datagram's records are exactly WireReportBytes each — the reports of the
// flows sharing one client socket that were sent together — and a rate
// datagram's exactly WireRateBytes each — the records one served batch
// decided for one client socket. A single-record datagram is one
// EncodeReport or EncodeRate output, and DecodeReport or DecodeRate reads
// the first record of any.
const (
	// WireHeaderBytes is the fixed header length; data packets are padded
	// to the payload size.
	WireHeaderBytes = headerBytes
	// WireMagic is the protocol magic byte at offset 0.
	WireMagic = magicByte
	// WireTypeData / WireTypeAck are the type-byte values at offset 1.
	WireTypeData = typeData
	WireTypeAck  = typeAck
	// WireTypeReport / WireTypeRate are the mocc-serve control-plane
	// datagrams: a flow's interval measurements and the rate decision.
	WireTypeReport = typeReport
	WireTypeRate   = typeRate
	// WireReportBytes is the exact length of one report record;
	// WireRateBytes the exact length of one rate record.
	WireReportBytes = headerBytes + 10*8
	WireRateBytes   = headerBytes + 3*8
)

const (
	headerBytes = 18
	magicByte   = 0xAC
	typeData    = 0
	typeAck     = 1
	typeReport  = 2
	typeRate    = 3
)

// WireReport is the payload of a report datagram: which flow is speaking,
// under what preference, and what the network did during one monitor
// interval — the over-the-wire form of the library's Status plus the
// registration weights, so a daemon can create the flow's handle lazily and
// follow live preference retunes.
type WireReport struct {
	// Flow identifies the flow within its source address; (addr, Flow) is
	// the daemon's session key.
	Flow uint64
	// Thr / Lat / Loss are the flow's preference weights.
	Thr, Lat, Loss float64
	// DurationNs is the monitor-interval length in nanoseconds.
	DurationNs int64
	// Sent / Acked / Lost are the interval's packet counts.
	Sent, Acked, Lost float64
	// AvgRTTNs / MinRTTNs are the interval mean and path-minimum RTT in
	// nanoseconds.
	AvgRTTNs, MinRTTNs int64
}

// EncodeReport writes a report record for (seq, unixNanos, r) into pkt
// (len >= WireReportBytes) and returns WireReportBytes.
func EncodeReport(pkt []byte, seq uint64, unixNanos int64, r WireReport) int {
	pkt[0] = magicByte
	pkt[1] = typeReport
	binary.BigEndian.PutUint64(pkt[2:10], seq)
	binary.BigEndian.PutUint64(pkt[10:18], uint64(unixNanos))
	binary.BigEndian.PutUint64(pkt[18:26], r.Flow)
	binary.BigEndian.PutUint64(pkt[26:34], math.Float64bits(r.Thr))
	binary.BigEndian.PutUint64(pkt[34:42], math.Float64bits(r.Lat))
	binary.BigEndian.PutUint64(pkt[42:50], math.Float64bits(r.Loss))
	binary.BigEndian.PutUint64(pkt[50:58], uint64(r.DurationNs))
	binary.BigEndian.PutUint64(pkt[58:66], math.Float64bits(r.Sent))
	binary.BigEndian.PutUint64(pkt[66:74], math.Float64bits(r.Acked))
	binary.BigEndian.PutUint64(pkt[74:82], math.Float64bits(r.Lost))
	binary.BigEndian.PutUint64(pkt[82:90], uint64(r.AvgRTTNs))
	binary.BigEndian.PutUint64(pkt[90:98], uint64(r.MinRTTNs))
	return WireReportBytes
}

// DecodeReport parses the report record at the start of buf. ok is false
// for short, foreign, or non-report input.
func DecodeReport(buf []byte) (seq uint64, unixNanos int64, r WireReport, ok bool) {
	if len(buf) < WireReportBytes || buf[0] != magicByte || buf[1] != typeReport {
		return 0, 0, WireReport{}, false
	}
	seq = binary.BigEndian.Uint64(buf[2:10])
	unixNanos = int64(binary.BigEndian.Uint64(buf[10:18]))
	r = WireReport{
		Flow:       binary.BigEndian.Uint64(buf[18:26]),
		Thr:        math.Float64frombits(binary.BigEndian.Uint64(buf[26:34])),
		Lat:        math.Float64frombits(binary.BigEndian.Uint64(buf[34:42])),
		Loss:       math.Float64frombits(binary.BigEndian.Uint64(buf[42:50])),
		DurationNs: int64(binary.BigEndian.Uint64(buf[50:58])),
		Sent:       math.Float64frombits(binary.BigEndian.Uint64(buf[58:66])),
		Acked:      math.Float64frombits(binary.BigEndian.Uint64(buf[66:74])),
		Lost:       math.Float64frombits(binary.BigEndian.Uint64(buf[74:82])),
		AvgRTTNs:   int64(binary.BigEndian.Uint64(buf[82:90])),
		MinRTTNs:   int64(binary.BigEndian.Uint64(buf[90:98])),
	}
	return seq, unixNanos, r, true
}

// EncodeRate writes a rate-decision record into pkt (len >=
// WireRateBytes) and returns WireRateBytes. seq and unixNanos echo the
// report being answered, so the flow can match replies and measure decision
// latency; flow disambiguates replies when many flows share one socket;
// epoch states which model generation decided.
func EncodeRate(pkt []byte, seq uint64, unixNanos int64, flow uint64, rate float64, epoch uint64) int {
	pkt[0] = magicByte
	pkt[1] = typeRate
	binary.BigEndian.PutUint64(pkt[2:10], seq)
	binary.BigEndian.PutUint64(pkt[10:18], uint64(unixNanos))
	binary.BigEndian.PutUint64(pkt[18:26], flow)
	binary.BigEndian.PutUint64(pkt[26:34], math.Float64bits(rate))
	binary.BigEndian.PutUint64(pkt[34:42], epoch)
	return WireRateBytes
}

// DecodeRate parses the rate record at the start of buf. ok is false for
// short, foreign, or non-rate input.
func DecodeRate(buf []byte) (seq uint64, unixNanos int64, flow uint64, rate float64, epoch uint64, ok bool) {
	if len(buf) < WireRateBytes || buf[0] != magicByte || buf[1] != typeRate {
		return 0, 0, 0, 0, 0, false
	}
	seq = binary.BigEndian.Uint64(buf[2:10])
	unixNanos = int64(binary.BigEndian.Uint64(buf[10:18]))
	flow = binary.BigEndian.Uint64(buf[18:26])
	rate = math.Float64frombits(binary.BigEndian.Uint64(buf[26:34]))
	epoch = binary.BigEndian.Uint64(buf[34:42])
	return seq, unixNanos, flow, rate, epoch, true
}

// DecodeHeader parses any wire datagram header, returning its type byte and
// sequence number. ok is false for short or foreign datagrams. The
// fault-injection shim uses it to classify traffic in both directions.
func DecodeHeader(buf []byte) (typ byte, seq uint64, ok bool) {
	if len(buf) < headerBytes || buf[0] != magicByte {
		return 0, 0, false
	}
	return buf[1], binary.BigEndian.Uint64(buf[2:10]), true
}

// EncodeAck writes an acknowledgement header into pkt (len >=
// WireHeaderBytes) — what a receiver sends back for (seq, unixNanos).
func EncodeAck(pkt []byte, seq uint64, unixNanos int64) {
	pkt[0] = magicByte
	pkt[1] = typeAck
	binary.BigEndian.PutUint64(pkt[2:10], seq)
	binary.BigEndian.PutUint64(pkt[10:18], uint64(unixNanos))
}

// EncodeDataHeader writes a data-packet header into pkt (len >=
// WireHeaderBytes); the rest of pkt is payload padding.
func EncodeDataHeader(pkt []byte, seq uint64, unixNanos int64) {
	pkt[0] = magicByte
	pkt[1] = typeData
	binary.BigEndian.PutUint64(pkt[2:10], seq)
	binary.BigEndian.PutUint64(pkt[10:18], uint64(unixNanos))
}

// DecodeData parses a received datagram as a data packet, returning its
// sequence number and send timestamp — what the receiver echoes in the ack.
// ok is false for short, foreign, or non-data datagrams.
func DecodeData(buf []byte) (seq uint64, unixNanos int64, ok bool) {
	if len(buf) < headerBytes || buf[0] != magicByte || buf[1] != typeData {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(buf[2:10]), int64(binary.BigEndian.Uint64(buf[10:18])), true
}

// DecodeAck parses a received datagram as an acknowledgement, returning the
// acked sequence number and the echoed send timestamp. ok is false for
// short, foreign, or non-ack datagrams.
func DecodeAck(buf []byte) (seq uint64, unixNanos int64, ok bool) {
	if len(buf) < headerBytes || buf[0] != magicByte || buf[1] != typeAck {
		return 0, 0, false
	}
	return binary.BigEndian.Uint64(buf[2:10]), int64(binary.BigEndian.Uint64(buf[10:18])), true
}
