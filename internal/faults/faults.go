// Package faults is the deterministic, seeded fault-injection subsystem
// behind the chaos suite and `mocc-bench -faults`: a Plan composes
// injectors for every failure class the serving stack must survive —
// ack-loss bursts, packet duplication and reordering, header corruption,
// receiver blackout windows, delayed/stale Status reports, clock skew, and
// non-finite or stalled inference — and adapts them onto the two layers
// where faults actually enter a deployment:
//
//   - the wire layer: Plan.WrapConn interposes a FaultConn between a sender
//     and its UDP socket (mocc/transport's Config.WrapConn and
//     ServeConnConfig.WrapConn accept it), tampering with data packets on
//     Write and acknowledgements on Read;
//   - the report path: Plan.WrapReporter wraps a *mocc.App (or anything
//     with its Report signature) to delay and skew the Status stream, and
//     Plan.InferenceHook builds the mocc.WithInferenceFault hook that
//     poisons or stalls the learned decision itself.
//
// Every probabilistic draw comes from a private RNG derived from Plan.Seed,
// and window-based injectors match on wire sequence numbers rather than
// wall-clock time, so a fixed plan makes bit-identical fault decisions for
// a fixed packet sequence — chaos runs are reproducible from (plan, seed).
package faults

import (
	"math/rand"
	"time"
)

// AckLoss drops acknowledgements in bursts: each arriving ack starts a new
// burst with probability Prob, and a burst swallows Burst consecutive acks
// (a 100%-loss ack window is AckLoss{Prob: 1}).
type AckLoss struct {
	// Prob is the per-ack probability of starting a drop burst.
	Prob float64
	// Burst is the burst length in acks (default 1).
	Burst int
}

// Duplicate re-sends data packets: each outgoing data packet is written
// twice with probability Prob, exercising the sender's duplicate-ack
// handling.
type Duplicate struct {
	Prob float64
}

// Reorder holds acknowledgements back: each arriving ack is stashed with
// probability Prob and released only after Delay further successful reads,
// so the sender sees acks out of order and late.
type Reorder struct {
	Prob float64
	// Delay is how many subsequent reads pass before a stashed ack is
	// released (default 3).
	Delay int
}

// Corrupt flips wire-header bytes: outgoing data-packet headers (Data) and
// incoming acknowledgements (Acks) are each corrupted with probability
// Prob. The corrupted byte and XOR mask are drawn from the plan RNG, so a
// corruption may destroy the magic byte (receiver/sender discards the
// datagram), the type byte, the sequence (ack for an unknown packet), or
// the timestamp.
type Corrupt struct {
	Prob float64
	Data bool
	Acks bool
}

// Window is a half-open wire-sequence interval [From, To).
type Window struct {
	From, To uint64
}

// contains reports whether seq falls inside the window.
func (w Window) contains(seq uint64) bool { return seq >= w.From && seq < w.To }

// Blackout silences the receiver for wire-sequence windows: data packets
// whose sequence falls in any window are swallowed after the sender's
// Write succeeds (they never reach the wire), and acknowledgements for
// in-window sequences are dropped. Sequence-based windows make a fixed
// plan bit-reproducible regardless of pacing timing; the real
// receiver-killed-mid-send case is covered by the transport chaos tests.
type Blackout struct {
	Windows []Window
}

// covers reports whether seq is inside any blackout window.
func (b *Blackout) covers(seq uint64) bool {
	if b == nil {
		return false
	}
	for _, w := range b.Windows {
		if w.contains(seq) {
			return true
		}
	}
	return false
}

// ReportFaults tampers with the Status stream an application sees:
// DelayIntervals of staleness (the controller acts on measurements that
// old) and clock skew on the RTT fields.
type ReportFaults struct {
	// DelayIntervals delivers the Status from this many intervals ago
	// (0 = live).
	DelayIntervals int
	// SkewFactor scales AvgRTT/MinRTT (0 means 1, i.e. no scaling);
	// SkewOffset is then added. Results are floored at zero so the
	// tampered Status stays structurally valid.
	SkewFactor float64
	SkewOffset time.Duration
}

// InferenceFaults poisons the learned decision itself inside a window of
// decision indexes — the model-corruption and stalled-inference faults of
// the chaos suite, delivered through mocc.WithInferenceFault.
type InferenceFaults struct {
	// NaN poisons decisions with index in [NaNFrom, NaNTo).
	NaNFrom, NaNTo int
	// Stall delays decisions with index in [StallFrom, StallTo) by
	// StallFor wall-clock time.
	StallFrom, StallTo int
	StallFor           time.Duration
}

// Plan is a seeded, reproducible composition of fault injectors. The zero
// plan injects nothing; set the fields for the faults a chaos run should
// drive. Plans are cheap values — derive one per run.
type Plan struct {
	// Seed drives every probabilistic injector; two identically-seeded
	// plans make identical decisions for identical traffic.
	Seed int64

	AckLoss   *AckLoss
	Duplicate *Duplicate
	Reorder   *Reorder
	Corrupt   *Corrupt
	Blackout  *Blackout
	Report    *ReportFaults
	Inference *InferenceFaults
}

// rng derives an independent, deterministic RNG for one injector role, so
// adding or removing one injector does not shift another's draw sequence.
func (p *Plan) rng(role int64) *rand.Rand {
	return rand.New(rand.NewSource(p.Seed*1103515245 + role*12345 + 1))
}

// rng role constants.
const (
	roleAckLoss int64 = iota + 1
	roleDuplicate
	roleReorder
	roleCorruptData
	roleCorruptAck
)
