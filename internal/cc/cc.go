// Package cc defines the congestion-control algorithm interface shared by
// the training environment, the packet-level simulator and the datapath
// shims, and implements every baseline the paper compares against (§6):
// TCP CUBIC, TCP Vegas, BBR, Copa, PCC Allegro, PCC Vivace, and adapters
// that run learned policies (Aurora, Orca, MOCC) as drop-in algorithms.
//
// All algorithms operate at monitor-interval granularity: after each
// interval the host calls Update with a Report of what happened, and the
// algorithm returns the sending rate for the next interval. Window-based
// schemes (CUBIC, Vegas) maintain a congestion window internally and are
// converted to rates via cwnd/SRTT, the standard rate-based emulation.
package cc

import (
	"math"
	"time"

	"mocc/internal/gym"
)

// Report summarizes one monitor interval as observed by the sender.
type Report struct {
	Duration   float64 // interval length (s)
	Sent       float64 // packets offered to the network
	Delivered  float64 // packets acknowledged
	Lost       float64 // packets lost (inferred)
	SendRate   float64 // offered rate (pkts/s)
	Throughput float64 // delivered rate (pkts/s)
	AvgRTT     float64 // mean RTT this interval (s)
	MinRTT     float64 // minimum RTT observed so far (s)
	LossRate   float64 // Lost / Sent
}

// LossEvent reports whether any packets were lost this interval.
func (r Report) LossEvent() bool { return r.Lost > 0 }

// IntervalReport builds the report of one monitor interval of length d from
// its packet counts and RTTs, deriving the rates and the loss rate — the
// conversion every host of a controller outside the simulator makes.
func IntervalReport(d time.Duration, sent, acked, lost float64, avgRTT, minRTT time.Duration) Report {
	r := Report{
		Duration:  d.Seconds(),
		Sent:      sent,
		Delivered: acked,
		Lost:      lost,
		AvgRTT:    avgRTT.Seconds(),
		MinRTT:    minRTT.Seconds(),
	}
	if r.Duration > 0 {
		r.SendRate = sent / r.Duration
		r.Throughput = acked / r.Duration
	}
	if sent > 0 {
		r.LossRate = lost / sent
	}
	return r
}

// AlgorithmFactory creates a fresh Algorithm instance; experiments use
// factories so every run starts from pristine controller state.
type AlgorithmFactory func() Algorithm

// Algorithm is a monitor-interval congestion controller.
type Algorithm interface {
	// Name identifies the scheme in experiment output.
	Name() string
	// Reset restores initial state; seed drives any internal randomness.
	Reset(seed int64)
	// InitialRate returns the sending rate (pkts/s) for the first
	// interval, given the expected base RTT in seconds.
	InitialRate(baseRTT float64) float64
	// Update consumes the previous interval's report and returns the
	// sending rate (pkts/s) for the next interval.
	Update(r Report) float64
}

// reportFromMetrics converts simulator metrics into the sender-visible
// report (hiding ground truth like true capacity).
func reportFromMetrics(m gym.Metrics, d float64) Report {
	return Report{
		Duration:   d,
		Sent:       m.Sent,
		Delivered:  m.Delivered,
		Lost:       m.Lost,
		SendRate:   m.SendRate,
		Throughput: m.Throughput,
		AvgRTT:     m.AvgRTT,
		MinRTT:     m.MinRTT,
		LossRate:   m.LossRate,
	}
}

// Drive runs an algorithm against a gym environment for the given number of
// monitor intervals and returns the per-interval metrics. The environment
// is reset first.
func Drive(env *gym.Env, alg Algorithm, steps int, seed int64) []gym.Metrics {
	env.Reset()
	alg.Reset(seed)
	baseRTT := 2 * env.Config().LatencyMs / 1000
	env.SetRate(alg.InitialRate(baseRTT))
	d := env.Config().MIms / 1000
	out := make([]gym.Metrics, 0, steps)
	for i := 0; i < steps; i++ {
		m := env.Step()
		out = append(out, m)
		env.SetRate(alg.Update(reportFromMetrics(m, d)))
	}
	return out
}

// clampRate bounds rates away from zero and absurd values so a misbehaving
// controller cannot wedge the simulation.
func clampRate(r float64) float64 {
	if math.IsNaN(r) || r < minRatePkts {
		return minRatePkts
	}
	if r > maxRatePkts {
		return maxRatePkts
	}
	return r
}

const (
	minRatePkts = 0.5   // pkts/s
	maxRatePkts = 1e7   // pkts/s
	initialCwnd = 10.0  // packets (IW10)
	minCwnd     = 2.0   // packets
	maxCwnd     = 1e6   // packets
	defaultRTT  = 0.040 // fallback when no RTT estimate exists (s)
)

// MinPacingRate and MaxPacingRate are the clampRate bounds (pkts/s) that
// every algorithm's published rate respects. The public library's safe-mode
// guard and the chaos suite pin published rates to this envelope.
const (
	MinPacingRate = minRatePkts
	MaxPacingRate = maxRatePkts
)

// ValidRate reports whether r is a finite pacing rate inside the clampRate
// envelope — the invariant a healthy controller decision always satisfies.
func ValidRate(r float64) bool {
	return !math.IsNaN(r) && !math.IsInf(r, 0) && r >= MinPacingRate && r <= MaxPacingRate
}

// srtt smooths RTT samples (RFC 6298 style, alpha = 1/8).
type srtt struct {
	value float64
}

func (s *srtt) update(sample float64) float64 {
	if sample <= 0 {
		return s.value
	}
	if s.value == 0 {
		s.value = sample
	} else {
		s.value = 0.875*s.value + 0.125*sample
	}
	return s.value
}

func (s *srtt) get() float64 {
	if s.value <= 0 {
		return defaultRTT
	}
	return s.value
}

// cwndToRate converts a window (packets) into a pacing rate over an RTT.
func cwndToRate(cwnd, rtt float64) float64 {
	if rtt <= 0 {
		rtt = defaultRTT
	}
	return clampRate(cwnd / rtt)
}
