package core

import (
	"errors"
	"math/rand"

	"mocc/internal/objective"
	"mocc/internal/rl"
)

// AdaptConfig controls online adaptation (§4.3).
type AdaptConfig struct {
	// MaxIters bounds the adaptation loop for one new objective.
	MaxIters int
	// RolloutSteps / EpisodeLen mirror the offline collection settings.
	RolloutSteps int
	EpisodeLen   int
	// Replay enables requirement replay (Equation 6); disabling it
	// reproduces the catastrophic-forgetting ablation of Figure 7b.
	Replay bool
	// Seed drives environment and replay sampling.
	Seed int64
	// PPO carries optimizer hyperparameters. Online adaptation keeps the
	// entropy coefficient at its final (small) value: the offline model
	// already explores near-optimally.
	PPO rl.PPOConfig
	// Envs generates the (new application's) environments.
	Envs rl.EnvFactory
}

// DefaultAdaptConfig returns online-adaptation settings derived from the
// paper: transfer learning from the offline model converges within tens of
// iterations.
func DefaultAdaptConfig() AdaptConfig {
	ppo := rl.DefaultPPOConfig()
	ppo.EntropyInit = 0.1
	ppo.EntropyFinal = 0.01
	ppo.EntropyDecayIters = 100
	return AdaptConfig{
		MaxIters:     200,
		RolloutSteps: 512,
		EpisodeLen:   128,
		Replay:       true,
		Seed:         1,
		PPO:          ppo,
	}
}

// AdaptResult records one adaptation run.
type AdaptResult struct {
	// Curve is the per-iteration mean rollout reward for the new
	// objective (the Figure 7a series).
	Curve []float64
	// ConvergedAt is the iteration reaching 99% of the maximum reward
	// gain (the paper's convergence definition), or -1 if the curve never
	// rises.
	ConvergedAt int
}

// Adapter performs online adaptation of a trained MOCC model: transfer
// learning toward new objectives plus requirement replay so old
// applications are not forgotten.
type Adapter struct {
	Model *Model
	Cfg   AdaptConfig

	ppo     *rl.PPO
	pool    *objective.Pool
	rng     *rand.Rand
	seedCtr int64

	// Collects the new and the replayed objective's rollouts together, into
	// storage reused from the previous step.
	collector rl.Collector
	tasks     [2]rl.CollectTask
}

// NewAdapter wraps a (typically offline-pre-trained) model for online
// adaptation.
func NewAdapter(model *Model, cfg AdaptConfig) (*Adapter, error) {
	if model == nil {
		return nil, errors.New("core: nil model")
	}
	if cfg.Envs == nil {
		return nil, errors.New("core: AdaptConfig.Envs is required")
	}
	if cfg.MaxIters <= 0 || cfg.RolloutSteps <= 0 || cfg.EpisodeLen <= 0 {
		return nil, errors.New("core: MaxIters, RolloutSteps, EpisodeLen must be positive")
	}
	return &Adapter{
		Model:   model,
		Cfg:     cfg,
		ppo:     rl.NewPPO(model, cfg.PPO),
		pool:    objective.NewPool(),
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		seedCtr: cfg.Seed,
	}, nil
}

// Register records one reference to an application requirement in the
// replay pool (the paper's library Register(w) call feeds this). Each
// Register must eventually be balanced by a Release when the application
// unregisters, or the requirement is rehearsed forever.
func (a *Adapter) Register(w objective.Weights) { a.pool.Add(w) }

// Release drops one reference to a requirement; releasing the last
// reference removes it from the replay pool so adaptation stops spending
// replay rollouts on preferences no live application holds. It reports
// whether the entry was removed.
func (a *Adapter) Release(w objective.Weights) bool { return a.pool.Release(w) }

// Pool exposes the replay pool (read-mostly; used by tests and the public
// library).
func (a *Adapter) Pool() *objective.Pool { return a.pool }

func (a *Adapter) nextSeed() int64 {
	a.seedCtr++
	return a.seedCtr * 1103515245
}

// Step performs one online-adaptation PPO iteration for objective w,
// implementing Equation 6: the update jointly optimizes the new objective
// and one uniformly sampled old objective from the pool (when replay is
// enabled and the pool has other entries). It returns the new objective's
// rollout reward.
func (a *Adapter) Step(w objective.Weights) float64 {
	a.tasks[0] = rl.CollectTask{Weights: w, Seed: a.nextSeed()}
	tasks := a.tasks[:1]
	if a.Cfg.Replay {
		if old, ok := a.pool.Sample(a.rng, w); ok {
			a.tasks[1] = rl.CollectTask{Weights: old, Seed: a.nextSeed()}
			tasks = a.tasks[:2]
		}
	}
	cfg := rl.CollectConfig{Steps: a.Cfg.RolloutSteps, EpisodeLen: a.Cfg.EpisodeLen, IncludeWeights: true, MaxAction: 2}
	rollouts := a.collector.CollectTasks(a.Model, a.Cfg.Envs, cfg, tasks)
	a.ppo.UpdateMulti(rollouts)
	return rollouts[0].MeanReward
}

// Adapt registers w and runs adaptation iterations until MaxIters,
// returning the learning curve and the 99%-gain convergence point.
func (a *Adapter) Adapt(w objective.Weights) AdaptResult {
	res := AdaptResult{ConvergedAt: -1}
	for i := 0; i < a.Cfg.MaxIters; i++ {
		res.Curve = append(res.Curve, a.Step(w))
	}
	a.pool.Add(w) // the new application becomes an old one
	res.ConvergedAt = ConvergenceIndex(res.Curve, 0.99, 5)
	return res
}

// AdaptWithSnapshots behaves like Adapt but additionally snapshots the model
// every snapshotEvery iterations, invoking fn with the iteration number and
// a deep copy. Figure 7b uses this to measure old-application rewards during
// adaptation.
func (a *Adapter) AdaptWithSnapshots(w objective.Weights, snapshotEvery int, fn func(iter int, m *Model)) AdaptResult {
	res := AdaptResult{ConvergedAt: -1}
	for i := 0; i < a.Cfg.MaxIters; i++ {
		res.Curve = append(res.Curve, a.Step(w))
		if snapshotEvery > 0 && (i+1)%snapshotEvery == 0 && fn != nil {
			fn(i+1, a.Model.Clone())
		}
	}
	a.pool.Add(w)
	res.ConvergedAt = ConvergenceIndex(res.Curve, 0.99, 5)
	return res
}

// ConvergenceIndex finds the first iteration whose smoothed reward reaches
// frac of the maximum reward gain over the starting reward (the paper's
// "99% of the maximum reward gain" convergence point for Figure 7a). The
// curve is smoothed with a centered moving average of the given window.
// It returns -1 when the curve is empty or never gains.
func ConvergenceIndex(curve []float64, frac float64, window int) int {
	if len(curve) == 0 {
		return -1
	}
	smooth := movingAverage(curve, window)
	start := smooth[0]
	maxV := start
	for _, v := range smooth {
		if v > maxV {
			maxV = v
		}
	}
	gain := maxV - start
	if gain <= 0 {
		return -1
	}
	threshold := start + frac*gain
	for i, v := range smooth {
		if v >= threshold {
			return i
		}
	}
	return -1
}

// movingAverage computes a centered moving average with the given window.
func movingAverage(xs []float64, window int) []float64 {
	if window <= 1 {
		return append([]float64(nil), xs...)
	}
	out := make([]float64, len(xs))
	half := window / 2
	for i := range xs {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(xs) {
			hi = len(xs) - 1
		}
		sum := 0.0
		for j := lo; j <= hi; j++ {
			sum += xs[j]
		}
		out[i] = sum / float64(hi-lo+1)
	}
	return out
}
