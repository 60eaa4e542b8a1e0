// Package rl implements the reinforcement-learning substrate MOCC trains
// on: PPO with the clipped surrogate objective, entropy regularization and
// the Equation 4 advantage estimate; trajectory collection (serial and
// goroutine-parallel, replacing Ray/RLlib from the paper's stack §5); and a
// DQN implementation for the learning-algorithm ablation (Figure 18).
//
// An update runs on the calling goroutine unless PPOConfig.Workers > 1, which
// shards every minibatch's rows over a worker pool and reduces the gradients
// in fixed order (update_parallel.go): deterministic for a fixed worker
// count, but a different floating-point summation order than whole
// minibatches. Collection allocates per rollout through Collect, or not at
// all through a Collector the caller keeps.
package rl

import (
	"fmt"
	"math"
	"math/rand"

	"mocc/internal/gym"
	"mocc/internal/nn"
	"mocc/internal/objective"
)

// Transition is one (s, a, r) step of experience plus the quantities PPO
// needs for its surrogate objective.
type Transition struct {
	Obs       []float64 // observation fed to the policy (may embed weights)
	Action    float64
	LogProb   float64 // log π_old(a|s) at collection time
	Reward    float64
	Value     float64 // V(s) at collection time
	Done      bool    // episode boundary after this step
	Return    float64 // discounted return (filled by ComputeReturns)
	Advantage float64 // Return - Value, normalized (filled by ComputeReturns)
}

// Rollout is a batch of transitions, possibly spanning several episodes.
type Rollout struct {
	Trans []Transition
	// MeanReward is the average per-step reward, the learning-curve metric
	// used in Figures 1c and 7.
	MeanReward float64
}

// ComputeReturns fills discounted returns (Equation 4's empirical total
// reward) and advantages Return - Value, respecting episode boundaries, and
// then normalizes advantages to zero mean / unit variance across the batch
// (standard PPO practice for stable updates).
func (r *Rollout) ComputeReturns(gamma float64) {
	if len(r.Trans) == 0 {
		return
	}
	running := 0.0
	for i := len(r.Trans) - 1; i >= 0; i-- {
		if r.Trans[i].Done {
			running = 0
		}
		running = r.Trans[i].Reward + gamma*running
		r.Trans[i].Return = running
	}
	var sum, sumSq float64
	for i := range r.Trans {
		adv := r.Trans[i].Return - r.Trans[i].Value
		r.Trans[i].Advantage = adv
		sum += adv
		sumSq += adv * adv
	}
	n := float64(len(r.Trans))
	mean := sum / n
	std := math.Sqrt(math.Max(sumSq/n-mean*mean, 1e-12))
	for i := range r.Trans {
		r.Trans[i].Advantage = (r.Trans[i].Advantage - mean) / std
	}
}

// ActorCritic is the differentiable policy/value model PPO trains. The MOCC
// model (preference sub-network) and the plain Aurora model both implement
// it; observations arrive pre-assembled, so the trainer is agnostic to
// whether preferences are embedded.
type ActorCritic interface {
	// PolicyForward evaluates the Gaussian policy head for one
	// observation, returning the action mean and standard deviation.
	PolicyForward(obs []float64) (mean, std float64)
	// PolicyBackward backpropagates loss gradients with respect to the
	// policy mean and log-std through the network evaluated by the most
	// recent PolicyForward, accumulating parameter gradients.
	PolicyBackward(dMean, dLogStd float64)
	// ValueForward evaluates the critic for one observation.
	ValueForward(obs []float64) float64
	// ValueBackward backpropagates a loss gradient with respect to the
	// critic output from the most recent ValueForward.
	ValueBackward(dV float64)
	// ActorParams and CriticParams expose trainable parameters.
	ActorParams() []*nn.Param
	CriticParams() []*nn.Param
	// ObsSize is the expected observation length.
	ObsSize() int
}

// BatchActorCritic is an ActorCritic whose networks additionally evaluate
// and backpropagate whole minibatches at once over row-major [n x ObsSize]
// observation matrices. PPO uses it to replace its per-sample loop with one
// batched forward/backward per minibatch; agents that do not implement it
// fall back to the per-sample path.
//
// Returned slices alias agent-owned scratch and are valid until the next
// batched call on the same half-network.
type BatchActorCritic interface {
	ActorCritic
	// PolicyForwardBatch evaluates the Gaussian policy head for n
	// observations, returning the per-sample action means and the shared
	// (state-independent) standard deviation.
	PolicyForwardBatch(obs []float64, n int) (means []float64, std float64)
	// PolicyBackwardBatch backpropagates per-sample loss gradients with
	// respect to the policy means and log-std through the networks
	// evaluated by the most recent PolicyForwardBatch.
	PolicyBackwardBatch(dMean, dLogStd []float64)
	// ValueForwardBatch evaluates the critic for n observations.
	ValueForwardBatch(obs []float64, n int) []float64
	// ValueBackwardBatch backpropagates per-sample critic-output gradients
	// from the most recent ValueForwardBatch.
	ValueBackwardBatch(dV []float64)
}

// EnvFactory creates a fresh training environment for a given seed;
// implementations typically sample Table 3 conditions from the seed.
type EnvFactory func(seed int64) *gym.Env

// CollectConfig controls trajectory collection.
type CollectConfig struct {
	// Steps is the number of transitions to collect.
	Steps int
	// EpisodeLen resets (and re-samples) the environment every this many
	// steps; 0 means never reset mid-collection.
	EpisodeLen int
	// IncludeWeights appends the objective weight vector to each
	// observation (the MOCC state layout, §4.1). Aurora-style agents
	// leave it false.
	IncludeWeights bool
	// Deterministic uses the policy mean instead of sampling (evaluation).
	Deterministic bool
	// MaxAction clips sampled actions before they reach the environment.
	MaxAction float64
}

// fillObs assembles the model input from the environment observation and,
// optionally, the preference weights, writing into dst (which must have the
// exact observation length) so per-step collection reuses buffers instead
// of allocating.
func fillObs(dst []float64, env *gym.Env, w objective.Weights, includeWeights bool) {
	obs := env.ObservationInto(dst[:0])
	if includeWeights {
		obs = append(obs, w.Thr, w.Lat, w.Loss)
	}
	if len(obs) != len(dst) {
		panic(fmt.Sprintf("rl: observation length %d, agent expects %d", len(obs), len(dst)))
	}
}

// Collect runs the agent in environments from factory under objective w for
// cfg.Steps transitions and returns the rollout. The reward each step is
// Equation 2 evaluated with w. envSeed seeds both environment sampling and
// action sampling so collection is reproducible.
func Collect(agent ActorCritic, factory EnvFactory, w objective.Weights, cfg CollectConfig, envSeed int64) Rollout {
	return new(Collector).Collect(agent, factory, w, cfg, envSeed)
}

// Collector is Collect over storage it keeps between calls: the rollout a
// call returns (its transitions and their observations) is overwritten by
// the next call on the same Collector. A loop that consumes each rollout
// before collecting the next holds one Collector per rollout in flight and
// stops allocating them.
type Collector struct {
	trans   []Transition
	backing []float64
}

// Collect is the package-level Collect into the collector's storage.
func (c *Collector) Collect(agent ActorCritic, factory EnvFactory, w objective.Weights, cfg CollectConfig, envSeed int64) Rollout {
	if cfg.MaxAction <= 0 {
		cfg.MaxAction = 2
	}
	rng := rand.New(rand.NewSource(envSeed))
	env := factory(rng.Int63())
	if cap(c.trans) < cfg.Steps {
		c.trans = make([]Transition, 0, cfg.Steps)
	}
	ro := Rollout{Trans: c.trans[:0]}
	epSteps := 0
	var rewardSum float64

	// One backing array holds every observation of the rollout; each
	// transition's Obs is a slice into it, so collection performs a single
	// allocation instead of one per step.
	obsDim := agent.ObsSize()
	c.backing = nn.Grow(c.backing, cfg.Steps*obsDim)
	backing := c.backing

	for len(ro.Trans) < cfg.Steps {
		obs := backing[len(ro.Trans)*obsDim : (len(ro.Trans)+1)*obsDim : (len(ro.Trans)+1)*obsDim]
		fillObs(obs, env, w, cfg.IncludeWeights)
		mean, std := agent.PolicyForward(obs)
		var action float64
		if cfg.Deterministic {
			action = mean
		} else {
			action = nn.GaussianSample(rng, mean, std)
		}
		clipped := math.Max(-cfg.MaxAction, math.Min(cfg.MaxAction, action))
		logProb := nn.GaussianLogProb(action, mean, std)
		value := agent.ValueForward(obs)

		env.ApplyAction(clipped)
		m := env.Step()
		oThr, oLat, oLoss := gym.RewardTerms(m)
		reward := w.Reward(oThr, oLat, oLoss)
		rewardSum += reward

		epSteps++
		done := false
		if cfg.EpisodeLen > 0 && epSteps >= cfg.EpisodeLen {
			done = true
			epSteps = 0
			env = factory(rng.Int63())
		} else if env.Done() {
			done = true
			epSteps = 0
			env = factory(rng.Int63())
		}

		ro.Trans = append(ro.Trans, Transition{
			Obs:     obs,
			Action:  action,
			LogProb: logProb,
			Reward:  reward,
			Value:   value,
			Done:    done,
		})
	}
	c.trans = ro.Trans
	ro.MeanReward = rewardSum / float64(len(ro.Trans))
	return ro
}

// EvaluatePolicy runs the deterministic policy for steps MIs on one
// environment and returns the mean Equation 2 reward — the scalar used for
// the reward CDFs (Figures 6, 16, 18).
func EvaluatePolicy(agent ActorCritic, env *gym.Env, w objective.Weights, includeWeights bool, steps int) float64 {
	env.Reset()
	var sum float64
	obs := make([]float64, agent.ObsSize())
	for i := 0; i < steps; i++ {
		fillObs(obs, env, w, includeWeights)
		mean, _ := agent.PolicyForward(obs)
		a := math.Max(-2, math.Min(2, mean))
		env.ApplyAction(a)
		m := env.Step()
		oThr, oLat, oLoss := gym.RewardTerms(m)
		sum += w.Reward(oThr, oLat, oLoss)
	}
	return sum / float64(steps)
}
