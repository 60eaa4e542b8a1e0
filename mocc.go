// Package mocc is the public library API of the MOCC multi-objective
// congestion controller (Ma et al., EuroSys 2022): one trained model serves
// any number of applications, each registered with its own performance
// preference over throughput, latency and loss.
//
// The API is built around per-application handles:
//
//	lib, _ := mocc.Train(mocc.QuickTraining())      // or mocc.New(model, opts...)
//	app, _ := lib.Register(mocc.Weights{Thr: 0.8, Lat: 0.1, Loss: 0.1})
//	for each monitor interval {
//	    rate, _ := app.Report(status)               // what the network did → pacing rate
//	}
//
// App.Report is the hot path: it touches only per-application state (each
// handle owns its controller, its telemetry, and a client of the library's
// inference engine — inline by default, sharded and batching with
// WithServing), so N applications on N cores never contend. On top
// of the handles, App.SetWeights retunes a live application's preference
// between intervals — the preference sub-network makes weight changes free
// at inference time, no re-registration — and App.Stats reports cumulative
// per-application telemetry. A real UDP socket loop for hosting an App end
// to end lives in the mocc/transport package.
//
// The paper's exact §5 three-call surface (Register/ReportStatus/
// GetSendingRate keyed by AppID) is kept as a thin compatibility layer over
// the handles; see Library.V1.
//
// Unseen preferences work immediately (the preference sub-network
// interpolates between trained landmarks); OnlineAdapt fine-tunes the model
// toward a specific objective without forgetting previously registered ones
// (requirement replay, §4.3).
package mocc

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mocc/internal/cc"
	"mocc/internal/core"
	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/obs"
	"mocc/internal/rl"
	"mocc/internal/serve"
	"mocc/internal/trace"
)

// Weights expresses an application requirement: the relative importance of
// throughput, latency, and packet loss. Weights must be strictly positive
// and sum to 1; use Normalize for free-form inputs.
type Weights struct {
	Thr, Lat, Loss float64
}

// Common presets matching the paper's evaluation.
var (
	// ThroughputPreference suits bulk and streaming apps (<0.8,0.1,0.1>).
	ThroughputPreference = Weights{0.8, 0.1, 0.1}
	// LatencyPreference suits interactive apps (<0.1,0.8,0.1>).
	LatencyPreference = Weights{0.1, 0.8, 0.1}
	// RTCPreference suits real-time calls (<0.4,0.5,0.1>).
	RTCPreference = Weights{0.4, 0.5, 0.1}
	// BalancedPreference weighs all three metrics equally.
	BalancedPreference = Weights{1.0 / 3, 1.0 / 3, 1.0 / 3}
)

// Normalize clamps and rescales arbitrary non-negative weights onto the
// valid simplex.
func (w Weights) Normalize() Weights {
	n := objective.Weights{Thr: w.Thr, Lat: w.Lat, Loss: w.Loss}.Normalize()
	return Weights{n.Thr, n.Lat, n.Loss}
}

// internal converts to the internal representation, validating first.
func (w Weights) internal() (objective.Weights, error) {
	return objective.New(w.Thr, w.Lat, w.Loss)
}

// Status reports one monitor interval of network behaviour to MOCC
// (the ReportStatus(s_t) call of §5).
type Status struct {
	// Duration of the interval.
	Duration time.Duration
	// PacketsSent / PacketsAcked / PacketsLost during the interval.
	PacketsSent  float64
	PacketsAcked float64
	PacketsLost  float64
	// AvgRTT is the mean round-trip time observed during the interval;
	// MinRTT is the minimum ever observed on the path.
	AvgRTT time.Duration
	MinRTT time.Duration
}

// validate rejects statuses no datapath can legitimately produce. Counters
// are per-interval: acked+lost packets are attributed to the interval that
// reports them, so a caller whose acks lag its sends must fold the
// in-flight carryover into PacketsSent (the mocc/transport sender does).
func (s Status) validate() error {
	if !(s.Duration > 0) {
		return fmt.Errorf("mocc: invalid Status: Duration %v must be positive", s.Duration)
	}
	for _, c := range [...]struct {
		name string
		v    float64
	}{
		{"PacketsSent", s.PacketsSent},
		{"PacketsAcked", s.PacketsAcked},
		{"PacketsLost", s.PacketsLost},
	} {
		if math.IsNaN(c.v) || math.IsInf(c.v, 0) || c.v < 0 {
			return fmt.Errorf("mocc: invalid Status: %s = %v (must be a finite non-negative count)", c.name, c.v)
		}
	}
	if s.PacketsAcked+s.PacketsLost > s.PacketsSent {
		return fmt.Errorf("mocc: inconsistent Status: PacketsAcked (%v) + PacketsLost (%v) exceed PacketsSent (%v)",
			s.PacketsAcked, s.PacketsLost, s.PacketsSent)
	}
	if s.AvgRTT < 0 || s.MinRTT < 0 {
		return fmt.Errorf("mocc: invalid Status: negative RTT (avg %v, min %v)", s.AvgRTT, s.MinRTT)
	}
	return nil
}

// report converts to the internal controller report.
func (s Status) report() cc.Report {
	return cc.IntervalReport(s.Duration, s.PacketsSent, s.PacketsAcked, s.PacketsLost, s.AvgRTT, s.MinRTT)
}

// AppID identifies a registered application in the §5 compatibility layer
// (see Library.V1); the handle API passes *App values instead.
type AppID int

// Library is a deployable MOCC instance: one model, many applications. All
// methods are safe for concurrent use; the per-application hot path
// (App.Report) runs on per-handle state and scales across cores.
type Library struct {
	model      *core.Model
	adapter    *core.Adapter // nil when built with WithoutAdaptation
	clock      func() time.Time
	initialRTT time.Duration

	// safeMode enables the guarded-inference layer on every registered
	// handle (nil when built with WithoutSafeMode); inferenceFault is the
	// chaos-injection seam of WithInferenceFault.
	safeMode       *SafeModeConfig
	inferenceFault func(act float64) float64

	// Safe-mode verdicts summed over every handle ever registered, so they
	// survive handle churn. Written only on a fault, trip or recovery; read
	// by the canary and the mocc_safemode_* series.
	guardFaults, guardTrips, guardRecoveries atomic.Uint64

	// engine is the inference engine every handle decides through: the
	// sharded batching engine with WithServing, the inline one without.
	// idleTTL/janitorStop/evicted drive the serving idle-handle janitor
	// and closeOnce makes Library.Close idempotent. bgWG tracks
	// the janitor and canary goroutines so Close can wait for them to
	// exit before the engine goes away; closed marks the library shut
	// down for /healthz.
	engine      *serve.Engine
	idleTTL     time.Duration
	janitorStop chan struct{}
	canaryStop  chan struct{} // stops the epoch canary monitor (nil unless enabled)
	evicted     atomic.Int64
	closeOnce   sync.Once
	closed      atomic.Bool
	bgWG        sync.WaitGroup

	// obs is the observability state (zero unless built with
	// WithObservability; every use is nil-safe).
	obs libObs

	mu     sync.RWMutex // guards apps and nextID only — never held on the hot path
	apps   map[AppID]*App
	nextID AppID

	adaptMu   sync.Mutex     // serializes OnlineAdapt runs against each other
	lastGood  nn.Snapshot    // OnlineAdapt's rollback point, refreshed in place (under adaptMu)
	params    []*nn.Param    // l.model.AllParams(), kept for OnlineAdapt's check, refresh and rollback
	adaptHook func(iter int) // test seam: runs after each Step under the write lock
}

// TrainingOptions configures offline training (§4.2).
type TrainingOptions struct {
	// Omega is the landmark objective count (Table 2 default: 36).
	Omega int
	// BootstrapIters / TraverseCycles scale the two training phases.
	BootstrapIters  int
	BootstrapCycles int
	TraverseIters   int
	TraverseCycles  int
	// RolloutSteps / EpisodeLen control per-iteration experience.
	RolloutSteps int
	EpisodeLen   int
	// Workers splits each iteration's rollout into that many tasks, which
	// one goroutine collects in lockstep through batched forwards, and
	// shards PPO minibatch updates over that many goroutines (per-worker
	// gradients reduced in fixed order, so training stays deterministic
	// for a fixed seed and worker count).
	Workers int
	// Seed makes training reproducible.
	Seed int64
	// Progress, when non-nil, receives training milestones.
	Progress func(string)
	// Metrics, when non-nil, registers the training-throughput series
	// (mocc_train_*: iterations, environment steps, last-iteration
	// reward, PPO update latency) on the sink — serve it with
	// Metrics.Handler to watch a long offline run live.
	Metrics *Metrics
}

// QuickTraining returns a laptop-scale configuration (seconds of training)
// that exercises every mechanism; FullTraining returns the paper-scale
// settings (ω=36, hours of training).
func QuickTraining() TrainingOptions {
	return TrainingOptions{
		Omega:           3,
		BootstrapIters:  8,
		BootstrapCycles: 2,
		TraverseIters:   1,
		TraverseCycles:  1,
		RolloutSteps:    256,
		EpisodeLen:      64,
		Workers:         4,
		Seed:            1,
	}
}

// FullTraining returns the paper-scale two-phase schedule.
func FullTraining() TrainingOptions {
	return TrainingOptions{
		Omega:           core.OmegaDefault,
		BootstrapIters:  40,
		BootstrapCycles: 10,
		TraverseIters:   2,
		TraverseCycles:  5,
		RolloutSteps:    1024,
		EpisodeLen:      256,
		Workers:         8,
		Seed:            1,
	}
}

// Train runs two-phase offline training on the Table 3 network distribution
// and returns a ready-to-use library; it is TrainModel followed by New.
func Train(opts TrainingOptions, libOpts ...Option) (*Library, error) {
	model, err := TrainModel(opts)
	if err != nil {
		return nil, err
	}
	return New(model, libOpts...)
}

// LoadModel builds a library from a model file produced by Model.Save,
// Library.SaveModel or cmd/mocc-train; it is LoadModelFile followed by New.
func LoadModel(path string, libOpts ...Option) (*Library, error) {
	model, err := LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	return New(model, libOpts...)
}

// Model returns the library's live model handle. The returned *Model
// shares parameter storage with the library (OnlineAdapt mutations are
// visible through it), so it can seed another Library — e.g. one built
// with different options over the same trained weights.
func (l *Library) Model() *Model {
	return &Model{m: l.model}
}

// SaveModel writes the library's (possibly adapted) model to a JSON file.
func (l *Library) SaveModel(path string) error {
	l.model.RLockParams()
	snap := l.model.Snapshot()
	l.model.RUnlockParams()
	return snap.SaveFile(path)
}

// Register announces a new application and its preference (§5's
// Register(w)) and returns its handle. Unseen preferences are served
// immediately by the multi-objective model; the handle's Report hot path
// runs entirely on per-application state.
func (l *Library) Register(w Weights) (*App, error) {
	iw, err := w.internal()
	if err != nil {
		return nil, fmt.Errorf("mocc: invalid weights: %w", err)
	}

	l.mu.Lock()
	id := l.nextID
	l.nextID++
	app := &App{
		lib:     l,
		id:      id,
		weights: iw,
		fault:   l.inferenceFault,
		timed:   l.safeMode != nil || l.inferenceFault != nil,
	}
	app.client = l.engine.NewClient(uint64(id), iw)
	app.onAct = app.settleAsync
	if l.obs.flightDepth > 0 {
		app.flight = obs.NewFlight(l.obs.flightDepth)
	}
	if l.safeMode != nil {
		app.guard = newGuard(*l.safeMode)
	}
	app.alg = cc.NewRLRate(fmt.Sprintf("mocc-app-%d", id), app.client, l.model.HistoryLen)
	app.alg.Reset(int64(id))
	app.publishRate(app.alg.InitialRate(l.initialRTT.Seconds()))
	app.tele.registered = l.clock()
	// The pool reference is taken before the handle becomes reachable in
	// the map, so any Unregister (which can only follow reachability) finds
	// its reference already counted.
	if l.adapter != nil {
		l.adapter.Register(iw)
	}
	l.apps[id] = app
	l.mu.Unlock()
	return app, nil
}

// App returns the handle registered under id, if any. It is the bridge
// between the §5 AppID surface and the handle API.
func (l *Library) App(id AppID) (*App, bool) {
	l.mu.RLock()
	app, ok := l.apps[id]
	l.mu.RUnlock()
	return app, ok
}

// Apps returns the number of registered applications.
func (l *Library) Apps() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return len(l.apps)
}

// unregister removes a handle: the map entry goes first (new calls can no
// longer reach it), the handle is marked closed, and the preference's
// replay-pool reference is released.
func (l *Library) unregister(a *App) error {
	l.mu.Lock()
	if _, ok := l.apps[a.id]; !ok {
		l.mu.Unlock()
		return fmt.Errorf("mocc: app %d is not registered", a.id)
	}
	delete(l.apps, a.id)
	l.mu.Unlock()

	a.mu.Lock()
	a.closed = true
	// Release inside a.mu: an in-flight SetWeights has either finished its
	// pool transfer (we release the new preference) or hasn't started (it
	// will see closed) — never a half-moved refcount.
	if l.adapter != nil {
		l.adapter.Release(a.weights)
	}
	a.mu.Unlock()
	return nil
}

// OnlineAdapt fine-tunes the model toward w for up to iters iterations
// using transfer learning with requirement replay (§4.3): previously
// registered applications are rehearsed so their policies are preserved.
// It returns the per-iteration reward curve of the new objective.
//
// Each iteration holds the model's parameter write lock, so concurrent
// App.Report calls stall for the duration of one iteration at a time. The
// adapted parameters reach live applications without re-registration, by
// one of two boot rules. A library built without WithServing decides on
// its live model until the first Publish, so the next Report already sees
// them. A serving library, and any library after its first Publish,
// decides on a frozen generation: the adapted model reaches Report when it
// is published (Publish(lib.Model())). The adapted objective is retained
// in the replay pool permanently.
//
// Every epoch is validated before it is published: if an iteration leaves
// any parameter non-finite, the model is restored to the last finite epoch
// (still under the write lock, so live applications never observe the
// poisoned parameters) and adaptation aborts with a descriptive error plus
// the reward curve of the iterations that did publish.
func (l *Library) OnlineAdapt(w Weights, iters int) ([]float64, error) {
	iw, err := w.internal()
	if err != nil {
		return nil, fmt.Errorf("mocc: invalid weights: %w", err)
	}
	if iters <= 0 {
		return nil, errors.New("mocc: iters must be positive")
	}
	if l.adapter == nil {
		return nil, errors.New("mocc: library was built without online adaptation (WithoutAdaptation)")
	}
	l.adaptMu.Lock()
	defer l.adaptMu.Unlock()

	l.model.RLockParams()
	ferr := nn.CheckFinite(l.params)
	l.lastGood.Refresh(l.params)
	l.model.RUnlockParams()
	if ferr != nil {
		return nil, fmt.Errorf("mocc: refusing to adapt a corrupted model: %w", ferr)
	}

	curve := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		l.model.LockParams()
		r := l.adapter.Step(iw)
		if l.adaptHook != nil {
			l.adaptHook(i)
		}
		if ferr := nn.CheckFinite(l.params); ferr != nil {
			restoreErr := l.lastGood.Restore(l.params)
			l.model.UnlockParams()
			if restoreErr != nil {
				return curve, fmt.Errorf("mocc: online adaptation diverged at iteration %d (%v) and rollback failed: %w",
					i, ferr, restoreErr)
			}
			return curve, fmt.Errorf("mocc: online adaptation diverged at iteration %d, model restored to the last finite epoch: %w",
				i, ferr)
		}
		l.lastGood.Refresh(l.params)
		l.model.UnlockParams()
		curve = append(curve, r)
	}
	l.adapter.Register(iw)
	return curve, nil
}

// trainConfig converts the public options into the internal schedule.
func trainConfig(opts TrainingOptions) core.TrainConfig {
	ppo := rl.DefaultPPOConfig()
	ppo.EntropyInit = 0.03
	ppo.EntropyFinal = 0.002
	ppo.EntropyDecayIters = 60
	ppo.Seed = opts.Seed
	return core.TrainConfig{
		Omega:           opts.Omega,
		BootstrapIters:  opts.BootstrapIters,
		BootstrapCycles: opts.BootstrapCycles,
		TraverseIters:   opts.TraverseIters,
		TraverseCycles:  opts.TraverseCycles,
		RolloutSteps:    opts.RolloutSteps,
		EpisodeLen:      opts.EpisodeLen,
		Workers:         opts.Workers,
		Seed:            opts.Seed,
		PPO:             ppo,
		Envs:            core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen),
		Progress:        opts.Progress,
		Metrics:         opts.Metrics.Registry(),
	}
}
