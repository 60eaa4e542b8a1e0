package main

import (
	"time"

	"mocc"
)

// Everything the program under test sees is generated here from the run's
// seed: preferences, monitor-interval statuses, derived scenario seeds.
// The same seed gives the same inputs.

// rng is splitmix64: allocation-free, one word of state per stream, so
// each flow owns an independent reproducible status sequence.
type rng struct{ s uint64 }

func newRNG(seed int64, stream uint64) rng {
	r := rng{s: uint64(seed)*0x9e3779b97f4a7c15 ^ (stream+1)*0xbf58476d1ce4e5b9}
	r.next()
	return r
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// float returns a value in [0, 1).
func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

// pref draws a normalized preference vector with no weight below ~2 %.
func (r *rng) pref() mocc.Weights {
	a, b, c := r.float()+0.05, r.float()+0.05, r.float()+0.05
	s := a + b + c
	return mocc.Weights{Thr: a / s, Lat: b / s, Loss: c / s}
}

// status fabricates one plausible 40 ms monitor interval. Counts are whole
// packets and acked is derived as sent − lost, so Acked+Lost ≤ Sent holds
// exactly (README, Findings: a float draw violates it by one ulp in ~0.1 %
// of reports and the daemon drops those without a reply).
func (r *rng) status() mocc.Status {
	sent := 40 + r.intn(21)
	lost := 0
	switch p := r.intn(100); {
	case p < 3:
		lost = 2
	case p < 23:
		lost = 1
	}
	return mocc.Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  float64(sent),
		PacketsAcked: float64(sent - lost),
		PacketsLost:  float64(lost),
		AvgRTT:       40*time.Millisecond + time.Duration(r.intn(15000))*time.Microsecond,
		MinRTT:       40 * time.Millisecond,
	}
}

// derivedSeeds expands the run seed into n scenario seeds (never 0, which
// a spec reads as "unset").
func derivedSeeds(seed int64, n int) []int64 {
	r := newRNG(seed, 0x5eed)
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(r.next()>>2) | 1
	}
	return out
}
