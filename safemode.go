package mocc

import (
	"fmt"
	"math"
	"time"

	"mocc/internal/cc"
	"mocc/internal/obs"
)

// SafeModeConfig tunes the guarded-inference layer that stands between the
// learned model and the published pacing rate (see WithSafeMode). Safe mode
// is on by default: every App.Report validates the learned decision (finite
// policy action, rate inside the pacing envelope, inference latency under
// the stall threshold, no panic) and, after TripAfter consecutive
// pathological decisions, degrades the application to a deterministic AIMD
// fallback controller. While degraded, the learned path is still evaluated
// in the shadow each interval; after RecoverAfter consecutive clean shadow
// decisions the learned path resumes, resynced to the fallback's operating
// point.
type SafeModeConfig struct {
	// TripAfter is how many consecutive pathological decisions switch the
	// application to the fallback controller (default 2).
	TripAfter int
	// RecoverAfter is how many consecutive clean shadow decisions while
	// degraded switch back to the learned path (default 5).
	RecoverAfter int
	// StallThreshold flags an inference as stalled when the policy
	// evaluation exceeds this wall-clock time (default 250ms). Negative
	// disables stall detection; zero keeps the default.
	StallThreshold time.Duration
}

// DefaultSafeMode returns the safe-mode settings used when no WithSafeMode
// option is given.
func DefaultSafeMode() SafeModeConfig {
	return SafeModeConfig{
		TripAfter:      2,
		RecoverAfter:   5,
		StallThreshold: 250 * time.Millisecond,
	}
}

// normalized fills zero fields with defaults.
func (c SafeModeConfig) normalized() SafeModeConfig {
	d := DefaultSafeMode()
	if c.TripAfter <= 0 {
		c.TripAfter = d.TripAfter
	}
	if c.RecoverAfter <= 0 {
		c.RecoverAfter = d.RecoverAfter
	}
	if c.StallThreshold == 0 {
		c.StallThreshold = d.StallThreshold
	} else if c.StallThreshold < 0 {
		c.StallThreshold = 0 // disabled
	}
	return c
}

// guard is the per-application safe-mode state machine (guarded by App.mu,
// like the controller it wraps). It sees every learned decision as the raw
// policy action plus its wall-clock latency, measured by the App from begin
// to settle; the optional fault hook (WithInferenceFault) runs inside that
// window, which is how the chaos suite emulates NaN-poisoned and stalled
// models without touching model internals. Its counters are this handle's
// alone; App.observe adds each fault, trip and recovery to the library's
// fleet totals, which outlive the handle.
type guard struct {
	cfg      SafeModeConfig
	fallback *cc.AIMD

	active      bool
	badStreak   int // consecutive pathological decisions while healthy
	cleanStreak int // consecutive clean shadow decisions while degraded

	lastGoodRate float64

	// telemetry
	fallbackIntervals int64
	fallbacks         int64
	faults            int64
	lastFault         string
	lastFaultAt       time.Time

	// Per-decision observability state (read by App.observe under the
	// same App.mu that serialized settle): the verdict class of the last
	// decision and whether it tripped or recovered the guard.
	lastClass     uint8
	justTripped   bool
	justRecovered bool
}

func newGuard(cfg SafeModeConfig) *guard {
	return &guard{cfg: cfg.normalized(), fallback: cc.NewAIMD()}
}

// judge classifies the learned decision; the empty string means clean.
// The uint8 is the obs.Verdict* class of the same verdict, recorded in
// the flight recorder without string formatting.
func (g *guard) judge(learned, act float64, dur time.Duration, panicMsg string) (string, uint8) {
	switch {
	case panicMsg != "":
		return panicMsg, obs.VerdictPanic
	case !finite(act):
		return fmt.Sprintf("non-finite policy action %v", act), obs.VerdictNonFinite
	case !cc.ValidRate(learned):
		return fmt.Sprintf("rate %v outside the pacing envelope [%v, %v]",
			learned, float64(cc.MinPacingRate), float64(cc.MaxPacingRate)), obs.VerdictEnvelope
	case g.cfg.StallThreshold > 0 && dur > g.cfg.StallThreshold:
		return fmt.Sprintf("stalled inference (%v > %v)", dur, g.cfg.StallThreshold), obs.VerdictStall
	}
	return "", obs.VerdictOK
}

// settle closes one monitor interval through the guard, given the policy's
// action on the interval's observation (alg has already ingested rep with
// RLRate.Observe), the action's latency and the panic it raised, if any.
// The learned controller always applies the action (as the primary
// decision when healthy, as the shadow probe when degraded) unless the
// policy panicked, its verdict drives the trip/recover state machine, and
// the returned rate is always inside the pacing envelope.
func (g *guard) settle(alg *cc.RLRate, act float64, dur time.Duration, panicMsg string, rep cc.Report, now time.Time) float64 {
	g.justTripped, g.justRecovered = false, false
	var learned float64
	if panicMsg == "" {
		learned = alg.Apply(act)
	}
	verdict, class := g.judge(learned, act, dur, panicMsg)
	g.lastClass = class
	clean := verdict == ""
	if clean {
		g.lastGoodRate = learned
	} else {
		g.faults++
		g.lastFault = verdict
		g.lastFaultAt = now
	}

	if !g.active {
		if clean {
			g.badStreak = 0
			return learned
		}
		g.badStreak++
		if g.badStreak >= g.cfg.TripAfter {
			g.enterFallback(rep)
			g.justTripped = true
			g.fallbackIntervals++
			return g.fallback.Rate()
		}
		// Suspect but not yet tripped: hold the last known-good rate
		// rather than publishing a possibly-degenerate decision.
		return g.safeRate(learned)
	}

	// Degraded: the fallback controller owns the rate; the learned path
	// just ran as a shadow probe.
	fb := g.fallback.Update(rep)
	g.fallbackIntervals++
	if clean {
		g.cleanStreak++
		if g.cleanStreak >= g.cfg.RecoverAfter {
			g.active = false
			g.badStreak = 0
			g.cleanStreak = 0
			g.justRecovered = true
			// Resync the learned controller to the connection's actual
			// operating point; it takes over next interval.
			alg.SetRate(fb)
		}
	} else {
		g.cleanStreak = 0
	}
	return fb
}

// enterFallback switches to the AIMD controller, seeded from the last
// known-good operating point (or the measured delivery rate when the app
// tripped before any clean decision).
func (g *guard) enterFallback(rep cc.Report) {
	g.active = true
	g.cleanStreak = 0
	g.fallbacks++
	g.fallback.Reset(0)
	seed := g.lastGoodRate
	if seed <= 0 {
		seed = rep.Throughput
	}
	if seed > 0 {
		g.fallback.SetRate(seed)
	} else {
		g.fallback.InitialRate(rep.MinRTT)
	}
}

// safeRate sanitizes a suspect decision: the learned rate if it is at least
// inside the envelope, otherwise the last known-good rate, otherwise the
// envelope floor.
func (g *guard) safeRate(learned float64) float64 {
	if cc.ValidRate(learned) {
		return learned
	}
	if g.lastGoodRate > 0 {
		return g.lastGoodRate
	}
	return cc.MinPacingRate
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
