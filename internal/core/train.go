package core

import (
	"errors"
	"fmt"
	"time"

	"mocc/internal/objective"
	"mocc/internal/obs"
	"mocc/internal/rl"
)

// TrainConfig controls the two-phase offline training of §4.2.
type TrainConfig struct {
	// Omega is the landmark objective count ω (Table 2: 36). The lattice
	// step is derived via objective.StepForOmega.
	Omega int
	// BootstrapIters is the number of PPO iterations per bootstrap
	// objective per cycle; BootstrapCycles alternates over the three
	// bootstraps so they improve in balance.
	BootstrapIters  int
	BootstrapCycles int
	// TraverseIters is the small number of PPO iterations per objective
	// visit during fast traversing ("we do not train an objective until
	// convergence but only for a few steps").
	TraverseIters int
	// TraverseCycles is how many times the full sorted objective list is
	// traversed.
	TraverseCycles int
	// RolloutSteps is the number of transitions collected per PPO
	// iteration; EpisodeLen bounds each episode (and re-samples the link).
	RolloutSteps int
	EpisodeLen   int
	// Workers splits each iteration's rollout into that many tasks, which
	// one goroutine collects in lockstep (rl.Collector.CollectTasks), and
	// shards the PPO minibatch updates over that many goroutines unless
	// PPO.Workers overrides it. A round never has more tasks than full
	// episodes fit in the budget (tasks = min(Workers,
	// max(1, RolloutSteps/EpisodeLen))), and the tasks split RolloutSteps
	// exactly. Training is deterministic for a fixed seed and worker count.
	Workers int
	// Seed drives all environment sampling and action noise.
	Seed int64
	// PPO carries the optimizer hyperparameters. PPO.Workers = 0 inherits
	// Workers for the data-parallel update engine; set PPO.Workers = 1 to
	// pin the update to one goroutine while keeping Workers' task split.
	PPO rl.PPOConfig
	// Envs generates training environments (defaults to Table 3 training
	// ranges when nil — set explicitly in tests for speed).
	Envs rl.EnvFactory
	// Progress, when non-nil, receives a line per training milestone.
	Progress func(string)
	// Metrics, when non-nil, registers the training-throughput series
	// (mocc_train_*): iteration and environment-step counters (steps/s
	// falls out of their rates), the last iteration's mean reward, and a
	// PPO update-latency histogram.
	Metrics *obs.Registry
}

// trainMetrics is the trainer's instrumentation (zero value = off).
type trainMetrics struct {
	iterations *obs.Counter
	envSteps   *obs.Counter
	reward     *obs.Gauge
	update     *obs.Histogram
}

func newTrainMetrics(reg *obs.Registry) trainMetrics {
	if reg == nil {
		return trainMetrics{}
	}
	return trainMetrics{
		iterations: reg.Counter("mocc_train_iterations_total",
			"PPO iterations completed across all phases."),
		envSteps: reg.Counter("mocc_train_env_steps_total",
			"Environment transitions collected (rate = training steps/s)."),
		reward: reg.Gauge("mocc_train_reward",
			"Mean per-step reward of the last completed iteration."),
		update: reg.Histogram("mocc_train_update_seconds",
			"PPO update latency per iteration.", 1e-9),
	}
}

// DefaultTrainConfig returns a full-scale configuration following the paper;
// tests and benches shrink it.
func DefaultTrainConfig() TrainConfig {
	return TrainConfig{
		Omega:           OmegaDefault,
		BootstrapIters:  20,
		BootstrapCycles: 5,
		TraverseIters:   2,
		TraverseCycles:  3,
		RolloutSteps:    512,
		EpisodeLen:      128,
		Workers:         4,
		Seed:            1,
		PPO:             rl.DefaultPPOConfig(),
	}
}

// CurvePoint is one point of a training curve.
type CurvePoint struct {
	Iteration int
	Objective objective.Weights
	Reward    float64 // mean per-step Equation 2 reward of the iteration's rollout
}

// OfflineResult summarizes a two-phase offline training run.
type OfflineResult struct {
	Curve          []CurvePoint
	Order          []objective.Weights // fast-traversing visit order
	BootstrapIters int
	TraverseIters  int
	// EnvSteps is the total number of environment transitions actually
	// collected during the run, counted from the rollouts themselves.
	EnvSteps int
}

// TotalIters returns the number of PPO iterations performed.
func (r *OfflineResult) TotalIters() int { return r.BootstrapIters + r.TraverseIters }

// OfflineTrainer runs the §4.2 two-phase schedule against a Model.
type OfflineTrainer struct {
	Model *Model
	Cfg   TrainConfig

	ppo       *rl.PPO
	collector rl.Collector
	tasks     []rl.CollectTask // makeTasks' storage
	seedCtr   int64
	envSteps  int // transitions collected across all iterations
	met       trainMetrics
}

// NewOfflineTrainer validates the configuration and prepares the trainer.
func NewOfflineTrainer(model *Model, cfg TrainConfig) (*OfflineTrainer, error) {
	if model == nil {
		return nil, errors.New("core: nil model")
	}
	if cfg.Envs == nil {
		return nil, errors.New("core: TrainConfig.Envs is required")
	}
	if cfg.Omega < 3 {
		return nil, fmt.Errorf("core: Omega %d too small (need >= 3)", cfg.Omega)
	}
	if cfg.RolloutSteps <= 0 || cfg.EpisodeLen <= 0 {
		return nil, errors.New("core: RolloutSteps and EpisodeLen must be positive")
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	if cfg.PPO.Workers == 0 {
		cfg.PPO.Workers = cfg.Workers
	}
	return &OfflineTrainer{
		Model:   model,
		Cfg:     cfg,
		ppo:     rl.NewPPO(model, cfg.PPO),
		seedCtr: cfg.Seed,
		met:     newTrainMetrics(cfg.Metrics),
	}, nil
}

// PPO exposes the underlying trainer (e.g. for entropy-schedule inspection).
func (t *OfflineTrainer) PPO() *rl.PPO { return t.ppo }

// nextSeed returns a fresh deterministic seed.
func (t *OfflineTrainer) nextSeed() int64 {
	t.seedCtr++
	return t.seedCtr * 2654435761 // Knuth multiplicative spread
}

// makeTasks plans one collection round for objective w, drawing one seed per
// task: at most Workers tasks, never more than RolloutSteps/EpisodeLen so
// every task collects at least one full episode, with RolloutSteps
// distributed exactly (earlier tasks absorb the remainder). The returned
// slice is the trainer's storage.
func (t *OfflineTrainer) makeTasks(w objective.Weights) []rl.CollectTask {
	n := t.Cfg.Workers
	if chunks := t.Cfg.RolloutSteps / t.Cfg.EpisodeLen; chunks < n {
		n = max(chunks, 1)
	}
	per, rem := t.Cfg.RolloutSteps/n, t.Cfg.RolloutSteps%n
	t.tasks = t.tasks[:0]
	for i := 0; i < n; i++ {
		steps := per
		if i < rem {
			steps++
		}
		t.tasks = append(t.tasks, rl.CollectTask{Weights: w, Seed: t.nextSeed(), Steps: steps})
	}
	return t.tasks
}

// Iterate runs a single PPO iteration on objective w and returns the
// rollouts' mean reward. The round's tasks are collected in lockstep and
// updated jointly, their losses averaged, which is gradient-equivalent to
// one large rollout.
func (t *OfflineTrainer) Iterate(w objective.Weights) (float64, error) {
	cfg := rl.CollectConfig{EpisodeLen: t.Cfg.EpisodeLen, IncludeWeights: true, MaxAction: 2}
	rollouts := t.collector.CollectTasks(t.Model, t.Cfg.Envs, cfg, t.makeTasks(w))
	for i := range rollouts {
		t.envSteps += len(rollouts[i].Trans)
		t.met.envSteps.Add(uint64(len(rollouts[i].Trans)))
	}
	start := time.Now()
	st := t.ppo.UpdateMulti(rollouts)
	t.met.update.Observe(uint64(time.Since(start)))
	return st.MeanReward, nil
}

// progress emits a milestone line when configured.
func (t *OfflineTrainer) progress(format string, args ...any) {
	if t.Cfg.Progress != nil {
		t.Cfg.Progress(fmt.Sprintf(format, args...))
	}
}

// runIteration runs one PPO iteration of the two-phase schedule on
// objective w, appends its curve point and bumps the phase counter.
func (t *OfflineTrainer) runIteration(res *OfflineResult, w objective.Weights, bootstrap bool) error {
	reward, err := t.Iterate(w)
	if err != nil {
		return err
	}
	if bootstrap {
		res.BootstrapIters++
	} else {
		res.TraverseIters++
	}
	t.met.iterations.Add(1)
	t.met.reward.Set(reward)
	res.Curve = append(res.Curve, CurvePoint{
		Iteration: len(res.Curve), Objective: w, Reward: reward,
	})
	return nil
}

// Run executes the full two-phase schedule: bootstrapping over the three
// pivot objectives, then fast traversing of the ω landmarks in the
// Appendix B neighbourhood order.
func (t *OfflineTrainer) Run() (*OfflineResult, error) {
	step := objective.StepForOmega(t.Cfg.Omega)
	landmarks := objective.Landmarks(step)
	bootstraps := objective.DefaultBootstraps(step)
	order, err := objective.SortObjectives(landmarks, bootstraps)
	if err != nil {
		return nil, err
	}

	res := &OfflineResult{Order: make([]objective.Weights, len(order))}
	for i, p := range order {
		res.Order[i] = p.Weights()
	}
	startSteps := t.envSteps // delta-count so repeated Run calls stay correct

	// Phase 1: bootstrapping — train the pivot objectives in alternation
	// so the base model improves on all of them in balance.
	t.progress("bootstrap: %d cycles x %d objectives x %d iters",
		t.Cfg.BootstrapCycles, len(bootstraps), t.Cfg.BootstrapIters)
	for cycle := 0; cycle < t.Cfg.BootstrapCycles; cycle++ {
		for _, b := range bootstraps {
			w := b.Weights()
			for it := 0; it < t.Cfg.BootstrapIters; it++ {
				if err := t.runIteration(res, w, true); err != nil {
					return nil, err
				}
			}
		}
		t.progress("bootstrap cycle %d/%d done", cycle+1, t.Cfg.BootstrapCycles)
	}

	// Phase 2: fast traversing — visit every landmark a few iterations at
	// a time, cycling until the configured passes complete.
	t.progress("fast traverse: %d cycles x %d objectives x %d iters",
		t.Cfg.TraverseCycles, len(order), t.Cfg.TraverseIters)
	for cycle := 0; cycle < t.Cfg.TraverseCycles; cycle++ {
		for _, p := range order {
			w := p.Weights()
			for it := 0; it < t.Cfg.TraverseIters; it++ {
				if err := t.runIteration(res, w, false); err != nil {
					return nil, err
				}
			}
		}
		t.progress("traverse cycle %d/%d done", cycle+1, t.Cfg.TraverseCycles)
	}
	res.EnvSteps = t.envSteps - startSteps
	return res, nil
}

// TrainIndividually trains one fresh single-objective run per landmark
// without any transfer — the "Individual Training" baseline of Figure 19.
// historyLen must match the environments produced by cfg.Envs. It returns
// the total PPO iterations consumed (the wall-clock proxy).
func TrainIndividually(cfg TrainConfig, historyLen, itersPerObjective int) (int, error) {
	step := objective.StepForOmega(cfg.Omega)
	total := 0
	for _, p := range objective.Landmarks(step) {
		model := NewModel(historyLen, cfg.Seed)
		t, err := NewOfflineTrainer(model, cfg)
		if err != nil {
			return 0, err
		}
		w := p.Weights()
		for i := 0; i < itersPerObjective; i++ {
			if _, err := t.Iterate(w); err != nil {
				return 0, err
			}
			total++
		}
	}
	return total, nil
}
