package faults

import (
	"math/rand"
	"sync"
	"time"

	"mocc/internal/datapath"
)

// Conn is the subset of *net.UDPConn the senders drive. The shim wraps any
// implementation; mocc/transport.Send accepts one via Config.WrapConn and
// transport.DialServe via ServeConnConfig.WrapConn (transport.PacketConn is
// structurally identical, so a FaultConn satisfies it).
type Conn interface {
	Read(b []byte) (int, error)
	Write(b []byte) (int, error)
	SetReadDeadline(t time.Time) error
	Close() error
}

// ConnStats counts the faults a FaultConn actually injected.
type ConnStats struct {
	// DataSwallowed are data packets dropped by blackout windows.
	DataSwallowed int
	// DataCorrupted / DataDuplicated count tampered outgoing packets.
	DataCorrupted  int
	DataDuplicated int
	// AcksDropped counts acks removed by loss bursts or blackout windows;
	// AcksCorrupted and AcksReordered count tampered/stashed acks.
	AcksDropped   int
	AcksCorrupted int
	AcksReordered int
	// Control-plane (mocc-serve) datagrams: report datagrams are tampered
	// on the write side exactly like data packets, rate replies on the
	// read side exactly like acks.
	ReportsSwallowed  int
	ReportsCorrupted  int
	ReportsDuplicated int
	RatesDropped      int
	RatesCorrupted    int
	RatesReordered    int
}

// FaultConn applies a Plan's wire-layer injectors around an inner Conn:
// Write tampers with outgoing datapath-bound datagrams — data packets and
// mocc-serve report datagrams — (blackout swallowing, header corruption,
// duplication); Read tampers with incoming ones — acknowledgements and
// mocc-serve rate replies — (loss bursts, blackout, corruption,
// reordering). Data and report share the write-side injector state, acks
// and rates the read-side state: a connection carries one kind or the
// other, so each plan's random streams stay bit-reproducible either way.
// A rate datagram coalescing several rate records is split into its
// records, handed up one per Read, so every injector judges each reply on
// its own — the same stream of draws whether the daemon sent the replies
// together or apart; Write splits a coalesced report datagram the same way.
//
// Like the *net.UDPConn it wraps, a FaultConn supports one goroutine
// calling Write concurrently with one goroutine calling Read (the
// sender/ack-collector split every sender in this repo uses); the two
// directions keep disjoint injector state.
type FaultConn struct {
	inner Conn
	plan  *Plan

	// Write side (pacing goroutine).
	wMu         sync.Mutex
	dupRng      *rand.Rand
	corrDataRng *rand.Rand
	scratch     []byte

	// Read side (ack-collector goroutine).
	rMu        sync.Mutex
	ackRng     *rand.Rand
	reorderRng *rand.Rand
	corrAckRng *rand.Rand
	burstLeft  int
	reads      int // successful delivered reads, drives reorder release
	stash      []stashed
	rest       []byte // records of a split rate datagram not yet handed up
	restOff    int

	statsMu sync.Mutex
	stats   ConnStats
}

// stashed is a held-back datagram pending reordering release.
type stashed struct {
	data    []byte
	release int // deliver once reads >= release
}

// WrapConn interposes the plan's wire-layer faults around inner.
func (p *Plan) WrapConn(inner Conn) *FaultConn {
	return &FaultConn{
		inner:       inner,
		plan:        p,
		dupRng:      p.rng(roleDuplicate),
		corrDataRng: p.rng(roleCorruptData),
		ackRng:      p.rng(roleAckLoss),
		reorderRng:  p.rng(roleReorder),
		corrAckRng:  p.rng(roleCorruptAck),
	}
}

// Stats returns a snapshot of the injected-fault counters.
func (c *FaultConn) Stats() ConnStats {
	c.statsMu.Lock()
	defer c.statsMu.Unlock()
	return c.stats
}

func (c *FaultConn) count(f func(*ConnStats)) {
	c.statsMu.Lock()
	f(&c.stats)
	c.statsMu.Unlock()
}

// SetReadDeadline forwards to the inner conn.
func (c *FaultConn) SetReadDeadline(t time.Time) error { return c.inner.SetReadDeadline(t) }

// Close forwards to the inner conn.
func (c *FaultConn) Close() error { return c.inner.Close() }

// corruptHeader XORs one RNG-chosen header byte with an RNG-chosen nonzero
// mask, in place.
func corruptHeader(rng *rand.Rand, pkt []byte) {
	n := len(pkt)
	if n > datapath.WireHeaderBytes {
		n = datapath.WireHeaderBytes
	}
	if n == 0 {
		return
	}
	idx := rng.Intn(n)
	mask := byte(1 + rng.Intn(255))
	pkt[idx] ^= mask
}

// Write implements Conn for outgoing data packets and report datagrams. A
// report datagram coalescing several report records is split into them,
// each judged by every injector on its own (blackout keyed on its own seq)
// and, if it survives, sent in its own inner Write — the same stream of
// draws whether the flows' reports went out together or apart, as
// nextRecord gives the read side. A trailing partial record goes on its
// own, as the malformed datagram it is. The caller's buffer is never
// mutated: corruption copies first (transport reuses one packet buffer
// across sends).
func (c *FaultConn) Write(b []byte) (int, error) {
	c.wMu.Lock()
	defer c.wMu.Unlock()
	if typ, _, ok := datapath.DecodeHeader(b); !ok || typ != datapath.WireTypeReport || len(b) <= datapath.WireReportBytes {
		return c.writeOne(b)
	}
	for off := 0; off < len(b); off += datapath.WireReportBytes {
		if _, err := c.writeOne(b[off:min(off+datapath.WireReportBytes, len(b))]); err != nil {
			return off, err
		}
	}
	return len(b), nil
}

// writeOne judges and sends one outgoing datagram or report record; any
// other traffic passes untouched. Called under wMu.
func (c *FaultConn) writeOne(b []byte) (int, error) {
	typ, seq, ok := datapath.DecodeHeader(b)
	if !ok || (typ != datapath.WireTypeData && typ != datapath.WireTypeReport) {
		return c.inner.Write(b)
	}
	isReport := typ == datapath.WireTypeReport

	if c.plan.Blackout.covers(seq) {
		// Swallowed after a successful send: the sender cannot tell the
		// receiver has gone dark — exactly the blackout it must detect
		// from the missing acks (or, for a report, the missing rate reply).
		c.count(func(s *ConnStats) {
			if isReport {
				s.ReportsSwallowed++
			} else {
				s.DataSwallowed++
			}
		})
		return len(b), nil
	}

	out := b
	if cr := c.plan.Corrupt; cr != nil && cr.Data && c.corrDataRng.Float64() < cr.Prob {
		if cap(c.scratch) < len(b) {
			c.scratch = make([]byte, len(b))
		}
		c.scratch = c.scratch[:len(b)]
		copy(c.scratch, b)
		corruptHeader(c.corrDataRng, c.scratch)
		out = c.scratch
		c.count(func(s *ConnStats) {
			if isReport {
				s.ReportsCorrupted++
			} else {
				s.DataCorrupted++
			}
		})
	}

	n, err := c.inner.Write(out)
	if err != nil {
		return n, err
	}
	if d := c.plan.Duplicate; d != nil && c.dupRng.Float64() < d.Prob {
		_, _ = c.inner.Write(out)
		c.count(func(s *ConnStats) {
			if isReport {
				s.ReportsDuplicated++
			} else {
				s.DataDuplicated++
			}
		})
	}
	if n > len(b) {
		n = len(b)
	}
	return n, nil
}

// Read implements Conn for incoming acknowledgements. Dropped datagrams
// make Read try again, so a fully-blacked-out window surfaces to the
// caller as the inner conn's read-deadline timeout — indistinguishable
// from a dead receiver, as intended.
func (c *FaultConn) Read(b []byte) (int, error) {
	c.rMu.Lock()
	defer c.rMu.Unlock()
	for {
		// Release any stashed (reordered) ack that has waited long enough.
		for i, st := range c.stash {
			if c.reads >= st.release {
				n := copy(b, st.data)
				c.stash = append(c.stash[:i], c.stash[i+1:]...)
				c.reads++
				return n, nil
			}
		}

		n, err := c.nextRecord(b)
		if err != nil {
			return n, err
		}
		typ, seq, ok := datapath.DecodeHeader(b[:n])
		if !ok || (typ != datapath.WireTypeAck && typ != datapath.WireTypeRate) {
			c.reads++
			return n, nil
		}
		isRate := typ == datapath.WireTypeRate

		if c.plan.Blackout.covers(seq) {
			c.count(func(s *ConnStats) {
				if isRate {
					s.RatesDropped++
				} else {
					s.AcksDropped++
				}
			})
			continue
		}
		if al := c.plan.AckLoss; al != nil {
			if c.burstLeft > 0 {
				c.burstLeft--
				c.count(func(s *ConnStats) {
					if isRate {
						s.RatesDropped++
					} else {
						s.AcksDropped++
					}
				})
				continue
			}
			if c.ackRng.Float64() < al.Prob {
				burst := al.Burst
				if burst <= 0 {
					burst = 1
				}
				c.burstLeft = burst - 1
				c.count(func(s *ConnStats) {
					if isRate {
						s.RatesDropped++
					} else {
						s.AcksDropped++
					}
				})
				continue
			}
		}
		if ro := c.plan.Reorder; ro != nil && c.reorderRng.Float64() < ro.Prob {
			delay := ro.Delay
			if delay <= 0 {
				delay = 3
			}
			c.stash = append(c.stash, stashed{
				data:    append([]byte(nil), b[:n]...),
				release: c.reads + delay,
			})
			c.count(func(s *ConnStats) {
				if isRate {
					s.RatesReordered++
				} else {
					s.AcksReordered++
				}
			})
			continue
		}
		if cr := c.plan.Corrupt; cr != nil && cr.Acks && c.corrAckRng.Float64() < cr.Prob {
			corruptHeader(c.corrAckRng, b[:n])
			c.count(func(s *ConnStats) {
				if isRate {
					s.RatesCorrupted++
				} else {
					s.AcksCorrupted++
				}
			})
		}
		c.reads++
		return n, nil
	}
}

// nextRecord reads the next datagram to judge into b: the next record of a
// split rate datagram while one is pending, else a fresh read from the
// inner conn, whose extra rate records (beyond the first WireRateBytes)
// are kept for the following calls. A trailing partial record comes up on
// its own, as the malformed datagram it is.
func (c *FaultConn) nextRecord(b []byte) (int, error) {
	if c.restOff < len(c.rest) {
		end := min(c.restOff+datapath.WireRateBytes, len(c.rest))
		n := copy(b, c.rest[c.restOff:end])
		c.restOff = end
		return n, nil
	}
	n, err := c.inner.Read(b)
	if err != nil || n <= datapath.WireRateBytes {
		return n, err
	}
	if typ, _, ok := datapath.DecodeHeader(b[:n]); !ok || typ != datapath.WireTypeRate {
		return n, nil
	}
	c.rest = append(c.rest[:0], b[datapath.WireRateBytes:n]...)
	c.restOff = 0
	return datapath.WireRateBytes, nil
}
