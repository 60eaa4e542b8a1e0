package mocc

import (
	"fmt"
	"time"

	"mocc/internal/obs"
)

// CanaryConfig tunes the epoch canary: a fleet health monitor that treats
// every newly published model generation as a canary and automatically
// rolls back to the displaced generation when the fleet's safe-mode fault
// rate under the new epoch exceeds a threshold. It is the fleet-granularity
// analogue of OnlineAdapt's per-iteration rollback guard: Publish's finite
// check rejects overtly corrupt parameters, the canary catches models that
// are numerically clean but decide pathologically (actions overflowing to
// Inf in the forward pass, rates outside the envelope, stalls) once real
// traffic hits them. Zero fields keep their defaults.
type CanaryConfig struct {
	// Window is how long a new epoch is observed before being promoted to
	// trusted (default 3s). A rollback decision can happen at any sample
	// inside the window.
	Window time.Duration
	// Interval is the sampling period (default Window/10, floored at 5ms).
	Interval time.Duration
	// MaxFaultRate is the rollback threshold: the fleet's guard-fault rate
	// (inference faults per served decision, with overload sheds — which
	// also surface as NaN faults — subtracted out) above which the canary
	// epoch is rolled back. Default 0.05.
	MaxFaultRate float64
	// MinReports is the minimum number of decisions the canary epoch must
	// have served before a rollback verdict is allowed, so a single early
	// fault on a quiet fleet cannot condemn a healthy model (default 50).
	MinReports uint64
	// OnRollback, when non-nil, is invoked (from the monitor goroutine)
	// after every automatic rollback.
	OnRollback func(ev RollbackEvent)
}

// RollbackEvent describes one automatic canary rollback.
type RollbackEvent struct {
	// From is the condemned epoch, To the epoch created by the rollback.
	From, To uint64
	// Faults is the excess guard-fault count observed under the condemned
	// epoch (overload sheds already subtracted); Reports is how many
	// decisions it served.
	Faults  int64
	Reports uint64
}

func (c CanaryConfig) normalized() CanaryConfig {
	if c.Window <= 0 {
		c.Window = 3 * time.Second
	}
	if c.Interval <= 0 {
		c.Interval = c.Window / 10
	}
	if c.Interval < 5*time.Millisecond {
		c.Interval = 5 * time.Millisecond
	}
	if c.MaxFaultRate <= 0 {
		c.MaxFaultRate = 0.05
	}
	if c.MinReports == 0 {
		c.MinReports = 50
	}
	return c
}

// canarySample is one point-in-time reading of the counters the canary
// judges an epoch by.
type canarySample struct {
	reports uint64 // engine decisions served
	shed    uint64 // engine decisions shed under overload
	faults  uint64 // guard faults of every handle ever registered
}

// canarySample reads the counters: atomic loads only, so it takes no
// library or handle lock and never waits for a decision in flight. The
// fault total counts handles unregistered since the last sample too.
func (l *Library) canarySample() canarySample {
	est := l.engine.Stats()
	return canarySample{reports: est.Reports, shed: est.Shed(), faults: l.guardFaults.Load()}
}

// canaryLoop watches for epoch changes and judges each new generation over
// a sliding window, starting from trusted, the generation in force when the
// library was built. cfg is already normalized.
func (l *Library) canaryLoop(cfg CanaryConfig, trusted uint64) {
	tick := time.NewTicker(cfg.Interval)
	defer tick.Stop()

	watching := false
	var (
		watch    uint64 // epoch under observation
		base     canarySample
		deadline time.Time
	)
	for {
		select {
		case <-l.canaryStop:
			return
		case <-tick.C:
		}
		ep := l.engine.Epoch()
		if !watching {
			if ep == trusted {
				continue
			}
			watching, watch = true, ep
			base = l.canarySample()
			deadline = time.Now().Add(cfg.Window)
			continue
		}
		if ep != watch {
			// Superseded mid-window (another Publish or a manual
			// Rollback): abandon this verdict; the next tick starts a
			// fresh canary on the new generation.
			watching = false
			continue
		}
		cur := l.canarySample()
		served := cur.reports - base.reports
		// Sheds also surface as NaN guard faults on the apps they hit, and
		// an overloaded fleet is not a poisoned model: subtract them. A
		// shed sampled before its verdict, or on a handle without safe
		// mode, has no fault to cancel, hence the clamp.
		excess := max(0, int64(cur.faults-base.faults)-int64(cur.shed-base.shed))
		if served >= cfg.MinReports && float64(excess) > cfg.MaxFaultRate*float64(served) {
			watching = false
			to, err := l.rollback()
			if err != nil {
				continue // nothing to roll back to; re-judge on the next tick
			}
			// The rollback target was trusted before the bad publish
			// displaced it; trust the epoch re-serving it, or the canary
			// would condemn its own recovery.
			trusted = to
			l.obs.canaryRollbacks.Add(1)
			if l.obs.events != nil {
				l.obs.events.Emit(obs.Event{Type: obs.EvCanaryRollback, Epoch: to,
					Msg: fmt.Sprintf("epoch %d condemned: %d excess faults over %d reports (threshold %.3g); the condemned decisions remain in the per-app flight recorders",
						watch, excess, served, cfg.MaxFaultRate)})
			}
			if cfg.OnRollback != nil {
				cfg.OnRollback(RollbackEvent{From: watch, To: to, Faults: excess, Reports: served})
			}
			continue
		}
		if time.Now().After(deadline) {
			trusted = watch // survived the window: promoted
			watching = false
		}
	}
}
