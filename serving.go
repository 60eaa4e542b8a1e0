package mocc

import (
	"errors"
	"fmt"
	"time"

	"mocc/internal/core"
	"mocc/internal/obs"
	"mocc/internal/serve"
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
// micro-batching engine instead of the inline one, which decides on the
// caller's goroutine through a private single-sample inference view:
// concurrent Reports coalesce into one batched forward pass per shard,
// paying the batched kernels' per-sample cost. Decisions are bit-identical
// to the inline path — batching never changes what any app is told, only
// what the fleet pays for it.
//
// The shards boot from a frozen clone of the library's model, so
// OnlineAdapt reaches Report only through Publish (see OnlineAdapt for the
// inline rule). Serving adds idle-handle eviction (IdleTTL), overload
// shedding (MaxQueue, Deadline) and the epoch canary; Publish, Rollback and
// Epoch work with or without it. A serving library should be shut down
// with Library.Close, which stops its shard goroutines.
func WithServing(opts ServingOptions) Option {
	return func(c *libConfig) { c.serving = &opts }
}

// Publish atomically installs m's current parameters as the new serving
// generation and returns its epoch sequence number. Shards pick the new
// generation up between batches, inline handles before their next
// decision: no Report ever blocks on the swap, and no Report ever observes
// a torn parameter set (each decision runs entirely on one complete
// generation). Non-finite models and models of another architecture (a
// different HistoryLen) are rejected, mirroring OnlineAdapt's rollback
// guard.
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
	if m == nil || m.m == nil {
		return 0, errors.New("mocc: Publish of nil model")
	}
	src := m.m
	// Freezing into the library's architecture is also the architecture
	// check, so the sync below cannot fail.
	frozen := core.NewModel(l.model.HistoryLen, 0)
	src.RLockParams()
	err := frozen.CopyFrom(src)
	src.RUnlockParams()
	if err != nil {
		return 0, fmt.Errorf("mocc: refusing to publish: %w", err)
	}
	// The engine goes first, and refuses a non-finite model: an inline
	// engine clones the displaced live model as the rollback target, which
	// must still hold the parameters it served.
	seq, err := l.engine.Publish(frozen)
	if err != nil {
		return 0, fmt.Errorf("mocc: %w", err)
	}
	l.obs.publishes.Add(1)
	if src != l.model {
		l.model.LockParams()
		l.model.CopyFrom(frozen)
		l.model.UnlockParams()
	}
	return seq, nil
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
	seq, m, err := l.engine.Rollback()
	if err != nil {
		return 0, fmt.Errorf("mocc: %w", err)
	}
	// m is a frozen generation Publish admitted, never the live model.
	l.model.LockParams()
	l.model.CopyFrom(m)
	l.model.UnlockParams()
	return seq, nil
}

// Epoch returns the engine's current model generation: 0 before the first
// Publish (or ServingOptions.InitialEpoch), one more per Publish and per
// Rollback.
func (l *Library) Epoch() uint64 { return l.engine.Epoch() }

// ServingStats is a point-in-time snapshot of the inference engine's
// counters (see serve.Stats: Shards is 0 on an inline library, which also
// reads 0 in Reports, Batches, MaxBatch and Queued) plus the idle-handle
// janitor's evictions. Rollbacks counts manual Library.Rollback plus
// canary-automatic ones; Shed() totals the overload sheds.
type ServingStats struct {
	serve.Stats
	// Evicted counts handles removed by the IdleTTL janitor.
	Evicted int64
}

// ServingStats returns the engine counters.
func (l *Library) ServingStats() ServingStats {
	return ServingStats{Stats: l.engine.Stats(), Evicted: l.evicted.Load()}
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

// Close shuts a library down: the idle janitor and the canary monitor
// stop — and are waited for, so no background goroutine of this library
// outlives Close or touches the engine after it — then the engine closes,
// a serving one draining every queued decision before its shards exit.
// Outstanding handles stay registered, but their learned path yields no
// further decisions — under safe mode they degrade to the deterministic
// fallback controller, without it each Report keeps its previous rate.
// Close is idempotent.
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
		l.engine.Close()
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
