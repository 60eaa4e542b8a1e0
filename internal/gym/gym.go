// Package gym is the monitor-interval (MI) link simulator used to train and
// evaluate rate-based congestion control agents. It is the Go equivalent of
// the OpenAI Gym + Aurora environment the paper builds on (§5): a single
// flow crosses a bottleneck link with configurable bandwidth trace,
// propagation delay, drop-tail queue and random loss; each Step advances one
// monitor interval using a fluid model and reports the network statistics
// the paper's state vector is built from (§4.1): sending ratio, latency
// ratio and latency gradient.
package gym

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mocc/internal/stats"
	"mocc/internal/trace"
)

// Config describes one simulated link and episode.
type Config struct {
	// Bandwidth is the bottleneck capacity schedule in packets/second.
	Bandwidth trace.Bandwidth
	// LatencyMs is the one-way propagation delay in milliseconds.
	LatencyMs float64
	// QueuePkts is the bottleneck buffer size in packets.
	QueuePkts int
	// LossRate is the random (non-congestive) loss probability in [0, 1).
	LossRate float64
	// MIms is the monitor-interval duration in milliseconds. Zero selects
	// one base RTT (the Aurora convention).
	MIms float64
	// HistoryLen is the η statistics-history length fed to the agent
	// (Table 2 uses 10).
	HistoryLen int
	// MaxSteps ends the episode after this many MIs (0 = unlimited).
	MaxSteps int
	// Seed drives the randomized initial rate.
	Seed int64
	// MinRate / MaxRate bound the sending rate in packets/second. Zero
	// values select defaults relative to the initial link capacity.
	MinRate, MaxRate float64
	// StartRate overrides the randomized initial sending rate when > 0.
	StartRate float64
	// CrossTraffic, when non-nil, is the rate (pkts/s over time) of
	// non-reactive background traffic sharing the bottleneck. Training
	// with cross-traffic episodes teaches policies not to starve when
	// a competitor holds the queue occupied.
	CrossTraffic trace.Bandwidth
}

// DefaultHistoryLen is η from Table 2.
const DefaultHistoryLen = 10

// ActionScale is α from Equation 1 (Table 2: 0.025).
const ActionScale = 0.025

// FromCondition builds a constant-parameter Config from a sampled network
// condition, using pktBytes to convert Mbps to packets/second.
func FromCondition(c trace.Condition, pktBytes int, seed int64) Config {
	return Config{
		Bandwidth:  trace.Constant(trace.MbpsToPktsPerSec(c.BandwidthMbps, pktBytes)),
		LatencyMs:  c.LatencyMs,
		QueuePkts:  c.QueuePkts,
		LossRate:   c.LossRate,
		HistoryLen: DefaultHistoryLen,
		Seed:       seed,
	}
}

// Stat is one MI's network statistics vector g_t = <l_t, p_t, q_t> (§4.1).
type Stat struct {
	SendRatio    float64 // packets sent / packets acked (>= 1)
	LatencyRatio float64 // mean MI latency / min observed mean latency (>= 1)
	LatencyGrad  float64 // d(latency)/dt, seconds per second
}

// Metrics reports the raw per-MI performance used for rewards and
// evaluation.
type Metrics struct {
	Time        float64 // simulation time at MI end (s)
	SendRate    float64 // offered rate this MI (pkts/s)
	Throughput  float64 // delivered rate this MI (pkts/s)
	Capacity    float64 // true link capacity this MI (pkts/s)
	Utilization float64 // Throughput / Capacity, in [0, ~1]
	AvgRTT      float64 // mean RTT this MI (s)
	MinRTT      float64 // minimum RTT observed so far (s)
	BaseRTT     float64 // true propagation RTT (s)
	LossRate    float64 // fraction of sent packets lost this MI
	Queue       float64 // queue occupancy at MI end (pkts)
	Sent        float64 // packets sent this MI
	Delivered   float64 // packets delivered this MI
	Lost        float64 // packets lost this MI
}

// LatencyRatioToBase is the paper's Figure 5(e-h) metric: measured RTT over
// the propagation RTT.
func (m Metrics) LatencyRatioToBase() float64 {
	if m.BaseRTT <= 0 {
		return 1
	}
	return m.AvgRTT / m.BaseRTT
}

// Env is a single-flow bottleneck-link environment. It is not safe for
// concurrent use; training replicates environments per goroutine instead.
type Env struct {
	cfg Config
	rng *rand.Rand
	// bw and cross hold the schedules New copied out of the caller's
	// storage (see New).
	bw, cross schedule
	released  bool

	time      float64
	rate      float64 // current sending rate (pkts/s)
	queue     float64 // bottleneck queue occupancy (pkts)
	lossCarry float64 // fractional random-loss accumulator (pkts)
	steps     int
	minMeanMs float64 // minimum observed MI mean latency (for p_t)
	prevRTT   float64 // previous MI mean RTT (for q_t)
	minRTT    float64
	history   []Stat
	maxThr    float64 // maximum observed throughput (capacity estimate)
}

// envPool holds released environments for New to renew.
var envPool sync.Pool

// New returns an environment for cfg, reset to the start of an episode: a
// released one renewed in place when there is one, else a new one; either
// way it steps bit for bit like the other. It panics if cfg.Bandwidth is
// nil, since every experiment must state its link explicitly. A Bandwidth
// or CrossTraffic given as a *trace.Constant or *trace.Step is copied into
// the environment, so the caller may reuse that storage once New returns: a
// factory that keeps its schedules there renews an environment without
// allocating.
func New(cfg Config) *Env {
	if cfg.Bandwidth == nil {
		panic("gym: Config.Bandwidth is required")
	}
	if cfg.HistoryLen <= 0 {
		cfg.HistoryLen = DefaultHistoryLen
	}
	if cfg.QueuePkts <= 0 {
		cfg.QueuePkts = 1000
	}
	bw0 := cfg.Bandwidth.At(0)
	if cfg.MIms <= 0 {
		cfg.MIms = math.Max(10, 2*cfg.LatencyMs) // one base RTT
	}
	if cfg.MinRate <= 0 {
		cfg.MinRate = math.Max(0.5, 0.01*bw0)
	}
	if cfg.MaxRate <= 0 {
		cfg.MaxRate = 8 * math.Max(bw0, 1)
	}
	e, _ := envPool.Get().(*Env)
	if e == nil {
		e = &Env{rng: rand.New(rand.NewSource(cfg.Seed))}
	} else {
		e.released = false
		e.rng.Seed(cfg.Seed) // the state of a fresh rand.NewSource(cfg.Seed)
	}
	cfg.Bandwidth = e.bw.own(cfg.Bandwidth)
	cfg.CrossTraffic = e.cross.own(cfg.CrossTraffic)
	e.cfg = cfg
	e.Reset()
	return e
}

// Release hands e back for New to renew. Only the owner of e may release
// it (New and every rl.EnvFactory return environments their caller owns),
// and neither e nor a Config read from it may be used afterwards. An
// environment that is never released is garbage collected as usual.
func (e *Env) Release() {
	if e.released {
		panic("gym: Env released twice")
	}
	e.released = true
	e.cfg.Bandwidth, e.cfg.CrossTraffic = nil, nil
	envPool.Put(e)
}

// schedule keeps a copy of a schedule New was given behind a pointer.
type schedule struct {
	c trace.Constant
	s trace.Step
}

// own returns b, or, when b points at a trace.Constant or trace.Step, a
// pointer to a copy of it in s.
func (s *schedule) own(b trace.Bandwidth) trace.Bandwidth {
	switch v := b.(type) {
	case *trace.Constant:
		s.c = *v
		return &s.c
	case *trace.Step:
		s.s = *v
		return &s.s
	}
	return b
}

// Config returns the environment configuration.
func (e *Env) Config() Config { return e.cfg }

// ObsSize returns the flattened observation length 3·η.
func (e *Env) ObsSize() int { return 3 * e.cfg.HistoryLen }

// Reset restarts the episode: empties the queue, clears history, and draws
// a fresh randomized initial rate (0.3-1.5× the initial capacity, the Aurora
// convention) unless StartRate pins it.
func (e *Env) Reset() {
	e.time = 0
	e.queue = 0
	e.lossCarry = 0
	e.steps = 0
	e.minMeanMs = math.Inf(1)
	e.minRTT = math.Inf(1)
	e.prevRTT = 0
	e.maxThr = 0
	if cap(e.history) < e.cfg.HistoryLen {
		e.history = make([]Stat, e.cfg.HistoryLen)
	}
	e.history = e.history[:e.cfg.HistoryLen]
	for i := range e.history {
		e.history[i] = Stat{SendRatio: 1, LatencyRatio: 1}
	}
	if e.cfg.StartRate > 0 {
		e.rate = e.clampRate(e.cfg.StartRate)
	} else {
		bw0 := e.cfg.Bandwidth.At(0)
		e.rate = e.clampRate(bw0 * (0.3 + 1.2*e.rng.Float64()))
	}
}

// Rate returns the current sending rate in packets/second.
func (e *Env) Rate() float64 { return e.rate }

// Time returns the current simulation time in seconds.
func (e *Env) Time() float64 { return e.time }

// Steps returns the number of MIs elapsed this episode.
func (e *Env) Steps() int { return e.steps }

// Done reports whether the episode reached MaxSteps.
func (e *Env) Done() bool {
	return e.cfg.MaxSteps > 0 && e.steps >= e.cfg.MaxSteps
}

// clampRate bounds a rate to the configured range.
func (e *Env) clampRate(r float64) float64 {
	return stats.Clamp(r, e.cfg.MinRate, e.cfg.MaxRate)
}

// ApplyAction changes the sending rate by the Equation 1 multiplicative
// rule: x' = x(1+αa) for a>0, x/(1-αa) for a<0, and returns the new rate.
func (e *Env) ApplyAction(a float64) float64 {
	if a > 0 {
		e.rate = e.clampRate(e.rate * (1 + ActionScale*a))
	} else if a < 0 {
		e.rate = e.clampRate(e.rate / (1 - ActionScale*a))
	}
	return e.rate
}

// SetRate pins the sending rate directly (used by non-RL baselines).
func (e *Env) SetRate(r float64) { e.rate = e.clampRate(r) }

// Step advances one monitor interval at the current sending rate and
// returns the raw metrics; the resulting state is read with Observation or
// ObservationInto.
func (e *Env) Step() Metrics {
	d := e.cfg.MIms / 1000 // MI duration in seconds
	cap := e.cfg.Bandwidth.At(e.time)
	if cap < 0.1 {
		cap = 0.1
	}

	sent := e.rate * d
	// Quantize random loss into whole packets: a fluid fraction every
	// interval would present loss-event-driven schemes (CUBIC, Vegas)
	// with a phantom loss event per MI even at 0.02% loss. The carry
	// accumulator emits integer losses at the configured long-run rate.
	e.lossCarry += sent * e.cfg.LossRate
	randomLost := math.Floor(e.lossCarry)
	e.lossCarry -= randomLost
	if randomLost > sent {
		randomLost = sent
	}
	arrived := sent - randomLost

	// Non-reactive background traffic shares the queue; the agent's share
	// of drops and deliveries is proportional to its arrival share.
	cross := 0.0
	if e.cfg.CrossTraffic != nil {
		cross = math.Max(0, e.cfg.CrossTraffic.At(e.time)) * d
	}
	totalArrived := arrived + cross
	share := 1.0
	if totalArrived > 0 {
		share = arrived / totalArrived
	}

	// Fluid drop-tail queue over the interval (all traffic combined).
	q0 := e.queue
	q1 := q0 + totalArrived - cap*d
	totalCongestiveLost := 0.0
	if q1 > float64(e.cfg.QueuePkts) {
		totalCongestiveLost = q1 - float64(e.cfg.QueuePkts)
		q1 = float64(e.cfg.QueuePkts)
	}
	if q1 < 0 {
		q1 = 0
	}
	e.queue = q1

	congestiveLost := totalCongestiveLost * share
	totalDelivered := totalArrived - totalCongestiveLost - (q1 - q0)
	if totalDelivered < 0 {
		totalDelivered = 0
	}
	delivered := totalDelivered * share
	lost := randomLost + congestiveLost

	baseRTT := 2 * e.cfg.LatencyMs / 1000
	queuingDelay := (q0 + q1) / 2 / cap
	rtt := baseRTT + queuingDelay

	throughput := delivered / d
	if throughput > e.maxThr {
		e.maxThr = throughput
	}
	if rtt < e.minRTT {
		e.minRTT = rtt
	}

	lossFrac := 0.0
	if sent > 0 {
		lossFrac = lost / sent
	}

	// State features (§4.1).
	sendRatio := 1.0
	if delivered > 0 {
		sendRatio = sent / delivered
	} else if sent > 0 {
		sendRatio = 10
	}
	meanMs := rtt * 1000
	if meanMs < e.minMeanMs {
		e.minMeanMs = meanMs
	}
	latRatio := meanMs / e.minMeanMs
	grad := 0.0
	if e.prevRTT > 0 {
		grad = (rtt - e.prevRTT) / d
	}
	e.prevRTT = rtt

	st := Stat{
		SendRatio:    stats.Clamp(sendRatio, 1, 10),
		LatencyRatio: stats.Clamp(latRatio, 1, 10),
		LatencyGrad:  stats.Clamp(grad, -2, 2),
	}
	copy(e.history, e.history[1:])
	e.history[len(e.history)-1] = st

	e.time += d
	e.steps++

	m := Metrics{
		Time:        e.time,
		SendRate:    e.rate,
		Throughput:  throughput,
		Capacity:    cap,
		Utilization: math.Min(throughput/cap, 1.2),
		AvgRTT:      rtt,
		MinRTT:      e.minRTT,
		BaseRTT:     baseRTT,
		LossRate:    lossFrac,
		Queue:       q1,
		Sent:        sent,
		Delivered:   delivered,
		Lost:        lost,
	}
	return m
}

// Observation returns the flattened statistics history: η triples of
// (sendRatio-1, latencyRatio-1, latencyGradient), newest last. The -1 shifts
// center the at-equilibrium features on zero, which keeps the tanh trunk in
// its responsive range.
func (e *Env) Observation() []float64 {
	return e.ObservationInto(make([]float64, 0, 3*len(e.history)))
}

// ObservationInto appends the flattened statistics history to dst and
// returns the extended slice. Callers on the training hot path pass a
// buffer with sufficient capacity to avoid per-step allocations.
func (e *Env) ObservationInto(dst []float64) []float64 {
	for _, s := range e.history {
		dst = append(dst, s.SendRatio-1, s.LatencyRatio-1, s.LatencyGrad)
	}
	return dst
}

// EstimatedCapacity returns the running capacity estimate (max observed
// throughput), the online stand-in for true link capacity (§4.1).
func (e *Env) EstimatedCapacity() float64 { return e.maxThr }

// EstimatedBaseRTT returns the running minimum RTT, the online stand-in for
// base link latency.
func (e *Env) EstimatedBaseRTT() float64 { return e.minRTT }

// RewardTerms computes the three normalized objective measures of
// Equation 2 from a metrics sample: O_thr = throughput/capacity,
// O_lat = baseRTT/RTT, O_loss = 1 - lossRate, each clamped to [0, 1].
func RewardTerms(m Metrics) (oThr, oLat, oLoss float64) {
	oThr = stats.Clamp(m.Throughput/math.Max(m.Capacity, 1e-9), 0, 1)
	oLat = stats.Clamp(m.BaseRTT/math.Max(m.AvgRTT, 1e-9), 0, 1)
	oLoss = stats.Clamp(1-m.LossRate, 0, 1)
	return oThr, oLat, oLoss
}

// String implements fmt.Stringer for debugging.
func (e *Env) String() string {
	return fmt.Sprintf("gym.Env{t=%.2fs rate=%.1fpps queue=%.0f}", e.time, e.rate, e.queue)
}
