package mocc

import (
	"errors"
	"fmt"
	"time"

	"mocc/internal/core"
	"mocc/internal/serve"
	"mocc/internal/trace"
)

// Model is a trained MOCC model decoupled from any Library: train or load
// one once, then wire it into a deployable Library with New. One Model must
// back at most one Library at a time.
type Model struct {
	m *core.Model
}

// TrainStats summarizes what an offline training run actually executed, as
// recorded by the trainer (not re-derived from the options).
type TrainStats struct {
	// BootstrapIters / TraverseIters are the PPO iterations performed in
	// each of the two §4.2 phases.
	BootstrapIters int
	TraverseIters  int
	// EnvSteps is the total number of environment transitions collected,
	// counted from the rollouts themselves.
	EnvSteps int
}

// TotalIters returns the number of PPO iterations performed.
func (s TrainStats) TotalIters() int { return s.BootstrapIters + s.TraverseIters }

// TrainModel runs two-phase offline training (§4.2) on the Table 3 network
// distribution and returns the trained model.
func TrainModel(opts TrainingOptions) (*Model, error) {
	model, _, err := TrainModelStats(opts)
	return model, err
}

// TrainModelStats is TrainModel returning, additionally, the executed
// schedule summary (for throughput reporting, e.g. cmd/mocc-train).
func TrainModelStats(opts TrainingOptions) (*Model, TrainStats, error) {
	model := core.NewModel(core.HistoryLen, opts.Seed)
	trainer, err := core.NewOfflineTrainer(model, trainConfig(opts))
	if err != nil {
		return nil, TrainStats{}, fmt.Errorf("mocc: configuring trainer: %w", err)
	}
	res, err := trainer.Run()
	if err != nil {
		return nil, TrainStats{}, fmt.Errorf("mocc: offline training: %w", err)
	}
	stats := TrainStats{
		BootstrapIters: res.BootstrapIters,
		TraverseIters:  res.TraverseIters,
		EnvSteps:       res.EnvSteps,
	}
	return &Model{m: model}, stats, nil
}

// LoadModelFile reads a model from a JSON file produced by Model.Save,
// Library.SaveModel or cmd/mocc-train.
func LoadModelFile(path string) (*Model, error) {
	model := core.NewModel(core.HistoryLen, 0)
	snap, err := loadSnapshot(path)
	if err != nil {
		return nil, err
	}
	if err := model.Restore(snap); err != nil {
		return nil, fmt.Errorf("mocc: restoring model: %w", err)
	}
	return &Model{m: model}, nil
}

// Save writes the model to a JSON file.
func (m *Model) Save(path string) error {
	m.m.RLockParams()
	snap := m.m.Snapshot()
	m.m.RUnlockParams()
	return snap.SaveFile(path)
}

// AdaptationOptions tunes the online-adaptation engine behind
// Library.OnlineAdapt (§4.3).
type AdaptationOptions struct {
	// RolloutSteps / EpisodeLen control per-iteration experience
	// collection (defaults 512 / 128).
	RolloutSteps int
	EpisodeLen   int
	// Replay enables requirement replay (Equation 6). Disabling it
	// reproduces the catastrophic-forgetting ablation of Figure 7b.
	Replay bool
	// Seed drives environment and replay sampling.
	Seed int64
}

// DefaultAdaptation returns the adaptation settings used when no
// WithAdaptation option is given.
func DefaultAdaptation() AdaptationOptions {
	cfg := core.DefaultAdaptConfig()
	return AdaptationOptions{
		RolloutSteps: cfg.RolloutSteps,
		EpisodeLen:   cfg.EpisodeLen,
		Replay:       cfg.Replay,
		Seed:         cfg.Seed,
	}
}

// libConfig collects the functional options of New.
type libConfig struct {
	adaptation     AdaptationOptions
	noAdaptation   bool
	clock          func() time.Time
	initialRTT     time.Duration
	safeMode       SafeModeConfig
	noSafeMode     bool
	inferenceFault func(act float64) float64
	serving        *ServingOptions
	observability  *ObservabilityOptions
}

// Option configures Library construction (see New).
type Option func(*libConfig)

// WithAdaptation overrides the online-adaptation engine settings.
func WithAdaptation(opts AdaptationOptions) Option {
	return func(c *libConfig) {
		c.adaptation = opts
		c.noAdaptation = false
	}
}

// WithoutAdaptation builds a pure-inference library: no adaptation engine
// is constructed, OnlineAdapt returns an error, and no replay pool is kept.
func WithoutAdaptation() Option {
	return func(c *libConfig) { c.noAdaptation = true }
}

// WithClock substitutes the time source used for telemetry timestamps
// (AppStats.Registered / LastReport). Tests inject deterministic clocks.
func WithClock(now func() time.Time) Option {
	return func(c *libConfig) { c.clock = now }
}

// WithInitialRTT sets the base-RTT estimate that seeds each new
// application's initial sending rate (default 40ms).
func WithInitialRTT(rtt time.Duration) Option {
	return func(c *libConfig) { c.initialRTT = rtt }
}

// WithSafeMode overrides the guarded-inference settings (safe mode is on by
// default with DefaultSafeMode; zero fields keep their defaults).
func WithSafeMode(cfg SafeModeConfig) Option {
	return func(c *libConfig) {
		c.safeMode = cfg
		c.noSafeMode = false
	}
}

// WithoutSafeMode disables the guarded-inference layer: App.Report
// publishes the learned decision unvalidated, with no fallback controller
// and no fault telemetry. Intended for controlled experiments that must
// observe the raw learned behaviour; production deployments should keep
// safe mode on.
func WithoutSafeMode() Option {
	return func(c *libConfig) { c.noSafeMode = true }
}

// WithInferenceFault installs a hook that transforms every learned policy
// decision before safe-mode validation — the seam the chaos suite and
// `mocc-bench -faults` use to emulate a corrupted or stalled model without
// touching model internals (return NaN, sleep past the stall threshold,
// scale the action, ...). The hook runs inside the guard's timed window on
// every registered application's Report path. Production deployments leave
// it unset.
func WithInferenceFault(f func(act float64) float64) Option {
	return func(c *libConfig) { c.inferenceFault = f }
}

// New wires a trained model into a deployable Library:
//
//	lib, err := mocc.New(model, mocc.WithAdaptation(adapt), mocc.WithClock(clock))
func New(model *Model, opts ...Option) (*Library, error) {
	if model == nil || model.m == nil {
		return nil, errors.New("mocc: nil model")
	}
	cfg := libConfig{
		adaptation: DefaultAdaptation(),
		clock:      time.Now,
		initialRTT: 40 * time.Millisecond,
	}
	for _, opt := range opts {
		opt(&cfg)
	}
	if cfg.clock == nil {
		return nil, errors.New("mocc: WithClock(nil)")
	}
	if cfg.initialRTT <= 0 {
		return nil, fmt.Errorf("mocc: WithInitialRTT(%v): must be positive", cfg.initialRTT)
	}

	l := &Library{
		model:          model.m,
		clock:          cfg.clock,
		initialRTT:     cfg.initialRTT,
		apps:           make(map[AppID]*App),
		inferenceFault: cfg.inferenceFault,
	}
	l.initObs(cfg.observability)
	if !cfg.noSafeMode {
		sm := cfg.safeMode.normalized()
		l.safeMode = &sm
	}
	if !cfg.noAdaptation {
		acfg := core.DefaultAdaptConfig()
		if cfg.adaptation.RolloutSteps > 0 {
			acfg.RolloutSteps = cfg.adaptation.RolloutSteps
		}
		if cfg.adaptation.EpisodeLen > 0 {
			acfg.EpisodeLen = cfg.adaptation.EpisodeLen
		}
		acfg.Replay = cfg.adaptation.Replay
		acfg.Seed = cfg.adaptation.Seed
		acfg.Envs = core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen)
		adapter, err := core.NewAdapter(model.m, acfg)
		if err != nil {
			return nil, fmt.Errorf("mocc: configuring adapter: %w", err)
		}
		l.adapter = adapter
		l.params = model.m.AllParams()
	}
	if cfg.serving == nil {
		// The inline engine decides on the live model: OnlineAdapt reaches
		// the next Report until the first Publish.
		l.engine = serve.NewInline(model.m, serve.Config{
			Metrics: l.obs.sink.Registry(),
			Events:  l.obs.events,
		})
	} else {
		if cfg.serving.IdleTTL < 0 {
			return nil, fmt.Errorf("mocc: WithServing IdleTTL %v: must be non-negative", cfg.serving.IdleTTL)
		}
		if cfg.serving.Deadline < 0 {
			return nil, fmt.Errorf("mocc: WithServing Deadline %v: must be non-negative", cfg.serving.Deadline)
		}
		// The engine gets a frozen clone of the boot generation, never the
		// live library model: Publish and OnlineAdapt mutate l.model in
		// place, and the boot epoch must stay intact both for lazy shard
		// rebuilds and as the first Publish's rollback target.
		model.m.RLockParams()
		boot := model.m.Clone()
		model.m.RUnlockParams()
		l.engine = serve.New(boot, serve.Config{
			Shards:    cfg.serving.Shards,
			MaxBatch:  cfg.serving.MaxBatch,
			MaxQueue:  cfg.serving.MaxQueue,
			Deadline:  cfg.serving.Deadline,
			BaseEpoch: cfg.serving.InitialEpoch,
			Metrics:   l.obs.sink.Registry(),
			Events:    l.obs.events,
		})
		if l.idleTTL = cfg.serving.IdleTTL; l.idleTTL > 0 {
			l.janitorStop = make(chan struct{})
			l.bgWG.Add(1)
			go func() {
				defer l.bgWG.Done()
				l.janitor()
			}()
		}
		if cfg.serving.Canary != nil {
			l.canaryStop = make(chan struct{})
			canaryCfg := cfg.serving.Canary.normalized()
			// Read the trusted epoch here, not in the goroutine: a Publish
			// that ran before the goroutine did would be trusted unjudged.
			trusted := l.engine.Epoch()
			l.bgWG.Add(1)
			go func() {
				defer l.bgWG.Done()
				l.canaryLoop(canaryCfg, trusted)
			}()
		}
	}
	return l, nil
}
