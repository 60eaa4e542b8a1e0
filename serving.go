package mocc

import (
	"errors"
	"fmt"
	"time"

	"mocc/internal/core"
	"mocc/internal/obs"
)

// ServingOptions configures the sharded batching inference engine enabled
// by WithServing. Zero fields keep their defaults.
type ServingOptions struct {
	// Shards is the number of independent batching queues; handles are
	// assigned to shards by ID hash. Defaults to GOMAXPROCS.
	Shards int
	// MaxBatch caps how many concurrent Report decisions share one batched
	// forward pass (default 64).
	MaxBatch int
	// IdleTTL, when positive, evicts handles that have not reported for
	// this long: they are unregistered exactly as by App.Unregister and
	// counted in ServingStats.Evicted. Eviction is approximate — a handle
	// racing its own eviction may lose (its next call fails as
	// unregistered) — which is the intended semantics for abandoned
	// fleet members.
	IdleTTL time.Duration
	// MaxQueue bounds each shard's pending-decision queue: a Report
	// arriving at a full shard is shed — its learned decision is NaN
	// ("leave the rate unchanged"), so under safe mode the app degrades
	// to its fallback controller instead of waiting without bound.
	// Defaults to 4096 per shard; negative disables the bound.
	MaxQueue int
	// Deadline, when positive, additionally sheds decisions that waited
	// in a shard queue longer than this before reaching a forward pass.
	// Zero disables deadline shedding.
	Deadline time.Duration
	// InitialEpoch is the epoch sequence number assigned to the model the
	// library was built with. A daemon resuming from a crash-safe
	// snapshot (SaveServingState/LoadServingState) passes the snapshot's
	// epoch so clients observe a continuous sequence across the restart.
	InitialEpoch uint64
	// Canary, when non-nil, enables the epoch canary: every Publish is
	// monitored over a sliding window and automatically rolled back when
	// the fleet's guard-fault rate under the new generation exceeds the
	// threshold. See CanaryConfig.
	Canary *CanaryConfig
}

// WithServing routes every handle's Report decision through a sharded
// micro-batching engine instead of a private single-sample inference view:
// concurrent Reports coalesce into one batched forward pass per shard,
// paying the batched kernels' per-sample cost. Decisions are bit-identical
// to the single-sample path — batching never changes what any app is told,
// only what the fleet pays for it.
//
// Serving also enables epoch-based model hot-swap (Library.Publish) and,
// when IdleTTL is set, idle-handle eviction. A serving library should be
// shut down with Library.Close.
func WithServing(opts ServingOptions) Option {
	return func(c *libConfig) { c.serving = &opts }
}

// Publish atomically installs m's current parameters as the new serving
// generation and returns its epoch sequence number. Shards pick the new
// generation up between batches: no Report ever blocks on the swap, and no
// Report ever observes a torn parameter set (each batch runs entirely on
// one complete generation). Non-finite models are rejected, mirroring
// OnlineAdapt's rollback guard.
//
// The parameters are snapshotted at call time — later mutations of m are
// not served until the next Publish. Publishing a model other than the
// library's own also copies the parameters into the library model, so
// SaveModel, Model and subsequent OnlineAdapt runs see the published
// generation. The intended hot-swap loops are
//
//	lib.OnlineAdapt(w, iters)   // adapt the live model offline from serving's
//	lib.Publish(lib.Model())    // point of view, then roll it out atomically
//
// and, for a model retrained out of process,
//
//	m, _ := mocc.LoadModelFile(path)
//	lib.Publish(m)
func (l *Library) Publish(m *Model) (uint64, error) {
	if l.engine == nil {
		return 0, errors.New("mocc: library was built without serving (WithServing)")
	}
	if m == nil || m.m == nil {
		return 0, errors.New("mocc: Publish of nil model")
	}
	src := m.m
	src.RLockParams()
	err := src.CheckFinite()
	var frozen *core.Model
	if err == nil {
		frozen = src.Clone()
	}
	src.RUnlockParams()
	if err != nil {
		return 0, fmt.Errorf("mocc: refusing to publish: %w", err)
	}
	if src != l.model {
		l.model.LockParams()
		cerr := l.model.CopyFrom(frozen)
		l.model.UnlockParams()
		if cerr != nil {
			return 0, fmt.Errorf("mocc: publishing foreign model: %w", cerr)
		}
	}
	seq, perr := l.engine.Publish(frozen)
	if perr == nil {
		l.obs.publishes.Add(1)
	}
	return seq, perr
}

// Rollback re-installs the model generation displaced by the most recent
// Publish (or Rollback) as a new epoch and returns its sequence number —
// the manual escape hatch when a published model turns out to misbehave in
// ways the finite check cannot catch. A second Rollback undoes the first.
// The library model is synced to the rolled-back parameters so SaveModel,
// Model and OnlineAdapt see the generation actually being served. The
// automatic form of this is the epoch canary (ServingOptions.Canary).
func (l *Library) Rollback() (uint64, error) {
	seq, err := l.rollback()
	if err == nil && l.obs.events != nil {
		l.obs.events.Emit(obs.Event{Type: obs.EvManualRollback, Epoch: seq})
	}
	return seq, err
}

// rollback is Rollback without the manual-rollback event, shared with
// the canary (which emits its own richer event).
func (l *Library) rollback() (uint64, error) {
	if l.engine == nil {
		return 0, errors.New("mocc: library was built without serving (WithServing)")
	}
	seq, m, err := l.engine.Rollback()
	if err != nil {
		return 0, fmt.Errorf("mocc: %w", err)
	}
	if m != l.model {
		l.model.LockParams()
		cerr := l.model.CopyFrom(m)
		l.model.UnlockParams()
		if cerr != nil {
			return seq, fmt.Errorf("mocc: syncing rolled-back model: %w", cerr)
		}
	}
	return seq, nil
}

// Epoch returns the serving engine's current model generation (0 before the
// first Publish, and always 0 for a library built without serving).
func (l *Library) Epoch() uint64 {
	if l.engine == nil {
		return 0
	}
	return l.engine.Epoch()
}

// ServingStats is a point-in-time snapshot of the serving engine.
type ServingStats struct {
	// Enabled reports whether the library was built with WithServing.
	Enabled bool
	// Shards is the configured shard count.
	Shards int
	// Epoch is the current model generation.
	Epoch uint64
	// Reports counts decisions served; Batches counts forward passes run.
	// Reports/Batches is the mean coalesced batch size.
	Reports uint64
	Batches uint64
	// MaxBatch is the largest coalesced batch observed.
	MaxBatch int
	// Swaps counts epoch applications summed over shards.
	Swaps uint64
	// Evicted counts handles removed by the IdleTTL janitor.
	Evicted int64
	// Queued is the number of decisions currently waiting in shard queues.
	Queued int64
	// ShedQueue / ShedDeadline count overload sheds: requests answered NaN
	// ("leave the rate unchanged") because a shard queue was at MaxQueue,
	// or because the request waited past the decision Deadline.
	ShedQueue    uint64
	ShedDeadline uint64
	// Panics counts inference panics recovered per batch (the batch was
	// answered NaN); Restarts counts consumer goroutines restarted by the
	// shard watchdog after a panic escaped the per-batch guards.
	Panics   uint64
	Restarts uint64
	// Rollbacks counts generation rollbacks (manual Library.Rollback plus
	// canary-automatic ones).
	Rollbacks uint64
}

// Shed returns the total requests shed for any reason.
func (s ServingStats) Shed() uint64 { return s.ShedQueue + s.ShedDeadline }

// ServingStats returns engine counters (the zero value when the library was
// built without serving).
func (l *Library) ServingStats() ServingStats {
	if l.engine == nil {
		return ServingStats{}
	}
	st := l.engine.Stats()
	return ServingStats{
		Enabled:      true,
		Shards:       st.Shards,
		Epoch:        st.Epoch,
		Reports:      st.Reports,
		Batches:      st.Batches,
		MaxBatch:     st.MaxBatch,
		Swaps:        st.Swaps,
		Evicted:      l.evicted.Load(),
		Queued:       st.Queued,
		ShedQueue:    st.ShedQueue,
		ShedDeadline: st.ShedDeadline,
		Panics:       st.Panics,
		Restarts:     st.Restarts,
		Rollbacks:    st.Rollbacks,
	}
}

// FleetStats aggregates every registered application's cumulative telemetry
// (App.Stats) into one fleet-level snapshot. Engine counters (sheds, queue
// depth, rollbacks, evictions) live in ServingStats.
type FleetStats struct {
	// Apps is the number of currently registered applications.
	Apps int
	// Reports counts accepted Report calls across the fleet.
	Reports int64
	// PacketsSent / PacketsAcked / PacketsLost are fleet-cumulative counts
	// and LossRate their cumulative ratio.
	PacketsSent  float64
	PacketsAcked float64
	PacketsLost  float64
	LossRate     float64
	// Throughput sums every app's cumulative delivery rate (pkts/s) —
	// the fleet's aggregate offered delivery under concurrent operation.
	Throughput float64
	// AvgRTT is the duration-weighted mean RTT across all reported
	// intervals of all apps; MinRTT is the smallest MinRTT any app ever
	// reported.
	AvgRTT time.Duration
	MinRTT time.Duration
	// MeanRate is the duration-weighted mean decided pacing rate across
	// the fleet; Duration is total reported interval time summed over apps.
	MeanRate float64
	Duration time.Duration
	// Safe-mode aggregates over the registered handles: intervals served
	// by fallback controllers, degradation episodes, currently-degraded app
	// count, and detected inference faults.
	FallbackIntervals int64
	Fallbacks         int64
	FallbackActive    int
	Faults            int64
}

// handles copies the registered handles out from under l.mu, so callers
// can take each handle's lock without holding the library's.
func (l *Library) handles() []*App {
	l.mu.RLock()
	defer l.mu.RUnlock()
	apps := make([]*App, 0, len(l.apps))
	for _, a := range l.apps {
		apps = append(apps, a)
	}
	return apps
}

// FleetStats returns the aggregated telemetry of every registered handle.
// It takes each handle's lock briefly in turn, so the snapshot is per-app
// consistent but not a single fleet-wide instant.
func (l *Library) FleetStats() FleetStats {
	apps := l.handles()
	f := FleetStats{Apps: len(apps)}
	var rttWeighted, rateTime, durSecs float64
	for _, a := range apps {
		st := a.Stats()
		f.Reports += st.Reports
		f.PacketsSent += st.PacketsSent
		f.PacketsAcked += st.PacketsAcked
		f.PacketsLost += st.PacketsLost
		f.Throughput += st.Throughput
		f.Duration += st.Duration
		d := st.Duration.Seconds()
		durSecs += d
		rttWeighted += st.AvgRTT.Seconds() * d
		rateTime += st.MeanRate * d
		if st.MinRTT > 0 && (f.MinRTT == 0 || st.MinRTT < f.MinRTT) {
			f.MinRTT = st.MinRTT
		}
		f.FallbackIntervals += st.FallbackIntervals
		f.Fallbacks += st.Fallbacks
		if st.FallbackActive {
			f.FallbackActive++
		}
		f.Faults += st.Faults
	}
	if f.PacketsSent > 0 {
		f.LossRate = f.PacketsLost / f.PacketsSent
	}
	if durSecs > 0 {
		f.AvgRTT = time.Duration(rttWeighted / durSecs * float64(time.Second))
		f.MeanRate = rateTime / durSecs
	}
	return f
}

// Close shuts a serving library down: the idle janitor and the canary
// monitor stop — and are waited for, so no background goroutine of this
// library outlives Close or touches the engine after it — then the
// engine drains every queued decision before its shards exit.
// Outstanding handles stay registered, but their learned path yields no
// further decisions — under safe mode they degrade to the deterministic
// fallback controller, without it each Report keeps its previous rate.
// Close is idempotent and a no-op for libraries built without serving.
func (l *Library) Close() {
	l.closeOnce.Do(func() {
		l.closed.Store(true)
		if l.janitorStop != nil {
			close(l.janitorStop)
		}
		if l.canaryStop != nil {
			close(l.canaryStop)
		}
		// The canary calls engine.Stats/Epoch/Rollback; the janitor walks
		// handles. Both must be gone before the engine shuts down.
		l.bgWG.Wait()
		if l.engine != nil {
			l.engine.Close()
		}
	})
}

// janitor periodically evicts handles idle past the TTL. The scan interval
// is a quarter of the TTL, so an abandoned handle lives at most ~1.25 TTLs.
func (l *Library) janitor() {
	period := l.idleTTL / 4
	if period < time.Millisecond {
		period = time.Millisecond
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-l.janitorStop:
			return
		case <-tick.C:
			l.evictIdle()
		}
	}
}

// evictIdle unregisters every handle whose last activity (last accepted
// Report, or registration when it never reported) is older than the TTL
// against the library clock. Returns how many were evicted.
func (l *Library) evictIdle() int {
	now := l.clock()
	n := 0
	for _, a := range l.handles() {
		if now.Sub(a.lastActivity()) > l.idleTTL {
			if l.unregister(a) == nil {
				l.evicted.Add(1)
				n++
			}
		}
	}
	return n
}
