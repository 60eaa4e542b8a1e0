package cc

import (
	"math"

	"mocc/internal/gym"
	"mocc/internal/stats"
)

// Policy maps an observation window (3·η features, as produced by
// gym.Env.Observation and FeatureTracker.Observation) to a rate-change
// action. Learned controllers (Aurora, Orca's RL half, MOCC) implement it.
type Policy interface {
	Act(obs []float64) float64
}

// PolicyFunc adapts a plain function to the Policy interface.
type PolicyFunc func(obs []float64) float64

// Act implements Policy.
func (f PolicyFunc) Act(obs []float64) float64 { return f(obs) }

// FeatureTracker rebuilds the gym observation vector from sender-visible
// Reports, so a policy trained in the simulator sees identical features when
// deployed over the packet-level simulator or a real datapath.
type FeatureTracker struct {
	history   []gym.Stat
	minMeanMs float64
	prevRTT   float64
}

// NewFeatureTracker creates a tracker with η history slots.
func NewFeatureTracker(historyLen int) *FeatureTracker {
	if historyLen <= 0 {
		historyLen = gym.DefaultHistoryLen
	}
	t := &FeatureTracker{}
	t.ResetHistory(historyLen)
	return t
}

// ResetHistory clears state, keeping (or resizing to) the given η.
func (t *FeatureTracker) ResetHistory(historyLen int) {
	t.history = make([]gym.Stat, historyLen)
	for i := range t.history {
		t.history[i] = gym.Stat{SendRatio: 1, LatencyRatio: 1}
	}
	t.minMeanMs = math.Inf(1)
	t.prevRTT = 0
}

// Push ingests one interval report and updates the feature history.
func (t *FeatureTracker) Push(r Report) {
	sendRatio := 1.0
	if r.Delivered > 0 {
		sendRatio = r.Sent / r.Delivered
	} else if r.Sent > 0 {
		sendRatio = 10
	}
	meanMs := r.AvgRTT * 1000
	if meanMs > 0 && meanMs < t.minMeanMs {
		t.minMeanMs = meanMs
	}
	latRatio := 1.0
	if t.minMeanMs > 0 && !math.IsInf(t.minMeanMs, 1) && meanMs > 0 {
		latRatio = meanMs / t.minMeanMs
	}
	grad := 0.0
	if t.prevRTT > 0 && r.Duration > 0 {
		grad = (r.AvgRTT - t.prevRTT) / r.Duration
	}
	if r.AvgRTT > 0 {
		t.prevRTT = r.AvgRTT
	}
	// Shift the window in place: an append onto history[1:] would walk the
	// slice through its backing array and reallocate every few pushes.
	copy(t.history, t.history[1:])
	t.history[len(t.history)-1] = gym.Stat{
		SendRatio:    stats.Clamp(sendRatio, 1, 10),
		LatencyRatio: stats.Clamp(latRatio, 1, 10),
		LatencyGrad:  stats.Clamp(grad, -2, 2),
	}
}

// Observation returns the flattened feature window (same layout as
// gym.Env.Observation: η triples, newest last, equilibrium-centered).
func (t *FeatureTracker) Observation() []float64 {
	return t.ObservationInto(nil)
}

// ObservationInto fills buf with the flattened feature window, growing it
// only when its capacity is insufficient, and returns the (re)sized slice —
// the allocation-free variant of Observation for per-interval hot paths.
func (t *FeatureTracker) ObservationInto(buf []float64) []float64 {
	need := 3 * len(t.history)
	if cap(buf) < need {
		buf = make([]float64, need)
	}
	buf = buf[:need]
	i := 0
	for _, s := range t.history {
		buf[i] = s.SendRatio - 1
		buf[i+1] = s.LatencyRatio - 1
		buf[i+2] = s.LatencyGrad
		i += 3
	}
	return buf
}

// RLRate runs a learned rate policy as a congestion-control Algorithm: each
// interval the policy's action adjusts the rate by the Equation 1 rule.
//
// A probe-restart guard prevents the winner-take-all starvation that purely
// multiplicative controllers exhibit when competing flows hold the queue
// occupied: if the rate stays below a small fraction of the best observed
// throughput for several intervals, the rate is reset to a probing level.
// This mirrors TCP's restart-after-idle and PCC's rate reset and matches the
// deployed behaviour of the paper's user-space senders.
type RLRate struct {
	name    string
	policy  Policy
	tracker *FeatureTracker
	rate    float64
	// MaxAction clamps the policy output (training uses the same bound).
	MaxAction float64

	maxThr float64   // best delivered rate observed (pkts/s)
	lowMIs int       // consecutive intervals spent starved
	obsBuf []float64 // reused observation assembly (per-interval hot path)
}

// probe-restart thresholds.
const (
	probeFloorFrac   = 0.12 // starved when rate < this fraction of maxThr
	probeRestartFrac = 0.30 // restart at this fraction of maxThr
	probeAfterMIs    = 5    // consecutive starved MIs before restarting
	minRateFrac      = 0.10 // hard pacing floor relative to best throughput
)

// NewRLRate wraps a policy as an Algorithm with the given display name and
// feature history length.
func NewRLRate(name string, policy Policy, historyLen int) *RLRate {
	return &RLRate{
		name:      name,
		policy:    policy,
		tracker:   NewFeatureTracker(historyLen),
		MaxAction: 2,
	}
}

// Name implements Algorithm.
func (a *RLRate) Name() string { return a.name }

// SetRate forces the controller's current rate (clamped into the valid
// envelope). The safe-mode guard uses it to resync the learned path to the
// fallback controller's operating point when recovering from a fault, so
// the first post-recovery decision adjusts from where the connection
// actually is rather than from a stale or degenerate rate.
func (a *RLRate) SetRate(r float64) { a.rate = clampRate(r) }

// Reset implements Algorithm.
func (a *RLRate) Reset(int64) {
	a.tracker.ResetHistory(len(a.tracker.history))
	a.rate = 0
	a.maxThr = 0
	a.lowMIs = 0
}

// InitialRate implements Algorithm.
func (a *RLRate) InitialRate(baseRTT float64) float64 {
	if baseRTT <= 0 {
		baseRTT = defaultRTT
	}
	a.rate = clampRate(2 * initialCwnd / baseRTT)
	return a.rate
}

// Update implements Algorithm: Apply(policy.Act(Observe(r))).
func (a *RLRate) Update(r Report) float64 {
	return a.Apply(a.policy.Act(a.Observe(r)))
}

// Observe is the first half of Update: it ingests the interval report and
// returns the observation the policy must act on. The slice is the
// controller's own buffer, valid until the next Observe.
func (a *RLRate) Observe(r Report) []float64 {
	a.tracker.Push(r)
	if r.Throughput > a.maxThr {
		a.maxThr = r.Throughput
	}
	a.obsBuf = a.tracker.ObservationInto(a.obsBuf)
	return a.obsBuf
}

// Apply is the second half of Update: it turns the policy's action on the
// last Observe into the next rate. A NaN action leaves the rate unchanged
// (the probe restart and the pacing floor still apply).
func (a *RLRate) Apply(act float64) float64 {
	act = stats.Clamp(act, -a.MaxAction, a.MaxAction)
	if act > 0 {
		a.rate = clampRate(a.rate * (1 + gym.ActionScale*act))
	} else if act < 0 {
		a.rate = clampRate(a.rate / (1 - gym.ActionScale*act))
	}
	// Probe restart: never stay starved while the link demonstrably
	// supported more.
	if a.maxThr > 0 && a.rate < probeFloorFrac*a.maxThr {
		a.lowMIs++
		if a.lowMIs >= probeAfterMIs {
			a.rate = clampRate(probeRestartFrac * a.maxThr)
			a.lowMIs = 0
		}
	} else {
		a.lowMIs = 0
	}
	// Hard pacing floor: a sender that once delivered maxThr never pacing
	// below a tenth of it (TCP keeps a minimum window for the same reason).
	if a.maxThr > 0 && a.rate < minRateFrac*a.maxThr {
		a.rate = clampRate(minRateFrac * a.maxThr)
	}
	return a.rate
}

// Orca models the two-level Orca design (Abbasloo et al., SIGCOMM 2020):
// classic CUBIC provides the fine-grained control loop, and an RL policy
// periodically rescales CUBIC's rate by 2^a with a in [-1, 1].
type Orca struct {
	cubic   *Cubic
	policy  Policy
	tracker *FeatureTracker
	// Period is how many intervals pass between RL decisions (Orca's
	// coarse control loop).
	Period int

	mult      float64
	sincePoll int
}

// NewOrca wraps an RL policy over a fresh CUBIC instance. A nil policy
// degrades to pure CUBIC (multiplier 1), which keeps the baseline usable
// before any model is trained.
func NewOrca(policy Policy, historyLen int) *Orca {
	o := &Orca{
		cubic:   NewCubic(),
		policy:  policy,
		tracker: NewFeatureTracker(historyLen),
		Period:  4,
	}
	o.Reset(0)
	return o
}

// Name implements Algorithm.
func (o *Orca) Name() string { return "orca" }

// Reset implements Algorithm.
func (o *Orca) Reset(seed int64) {
	o.cubic.Reset(seed)
	o.tracker.ResetHistory(len(o.tracker.history))
	o.mult = 1
	o.sincePoll = 0
}

// InitialRate implements Algorithm.
func (o *Orca) InitialRate(baseRTT float64) float64 {
	return o.cubic.InitialRate(baseRTT)
}

// Multiplier exposes the current RL scaling factor for tests.
func (o *Orca) Multiplier() float64 { return o.mult }

// Update implements Algorithm.
func (o *Orca) Update(r Report) float64 {
	cubicRate := o.cubic.Update(r)
	o.tracker.Push(r)
	o.sincePoll++
	if o.policy != nil && o.sincePoll >= o.Period {
		o.sincePoll = 0
		a := stats.Clamp(o.policy.Act(o.tracker.Observation()), -1, 1)
		o.mult = math.Pow(2, a)
	}
	return clampRate(cubicRate * o.mult)
}
