// Package rl implements the reinforcement-learning substrate MOCC trains
// on: PPO with the clipped surrogate objective, entropy regularization and
// the Equation 4 advantage estimate; trajectory collection; and a DQN
// implementation for the learning-algorithm ablation (Figure 18).
//
// Collection runs on the calling goroutine. Collector.CollectTasks steps K
// environments in lockstep through one batched policy forward per round,
// the single-process form of the Ray/RLlib parallel environments of the
// paper's stack (§5), then values each rollout's observations in one
// batched critic forward; every rollout it returns is bit for bit the one
// Collect gives for that task alone. Collection allocates per rollout
// through Collect. Through a Collector the caller keeps it allocates
// nothing once warm, given a factory such as core.TrainingEnvs that builds
// its environments with gym.New, which renews the ones collection releases.
// An update runs on the calling goroutine unless PPOConfig.Workers > 1,
// which shards every minibatch's rows over a worker pool and reduces the
// gradients in fixed order (update_parallel.go): deterministic for a fixed
// worker count, but a different floating-point summation order than whole
// minibatches.
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
// observation matrices. Collection requires it: each lockstep round is one
// PolicyForwardBatch, and each rollout's values are one ValueForwardBatch
// over all of its observations. PPO uses it to replace its
// per-sample loop with one batched forward/backward per minibatch; only
// PPO's update falls back to the per-sample path for an agent that does not
// implement it.
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
// implementations typically sample Table 3 conditions from the seed. Every
// call returns an environment no one else holds, owned by the caller:
// collection hands each one back with (*gym.Env).Release once it replaces
// it, and gym.New renews released environments.
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
func Collect(agent BatchActorCritic, factory EnvFactory, w objective.Weights, cfg CollectConfig, envSeed int64) Rollout {
	return new(Collector).CollectTasks(agent, factory, cfg, []CollectTask{{Weights: w, Seed: envSeed}})[0]
}

// CollectTask is one rollout of a collection round.
type CollectTask struct {
	Weights objective.Weights
	Seed    int64
	// Steps, when > 0, overrides CollectConfig.Steps for this task so a
	// rollout budget can be split exactly across uneven tasks.
	Steps int
}

// Collector collects rollouts into storage it keeps between calls: the
// rollouts a call returns (their transitions and observations) are
// overwritten by the next call on the same Collector. A loop that consumes
// each round before collecting the next stops allocating them.
type Collector struct {
	tasks []taskState
	live  []int     // indices of the tasks still collecting
	obs   []float64 // the round's [len(live) x ObsSize] batch
	out   []Rollout
}

// taskState is one task's environment, random stream and storage.
type taskState struct {
	rng       *rand.Rand
	env       *gym.Env
	w         objective.Weights
	steps     int
	epSteps   int
	rewardSum float64
	trans     []Transition
	// backing holds every observation of the rollout; each transition's
	// Obs is a slice of it.
	backing []float64
}

// start seeds the task's random stream and first environment as Collect
// seeds them, releasing the previous call's environment, and empties its
// storage for steps transitions.
func (s *taskState) start(task CollectTask, steps, obsDim int, factory EnvFactory) {
	if task.Steps > 0 {
		steps = task.Steps
	}
	if s.rng == nil {
		s.rng = rand.New(rand.NewSource(task.Seed))
	} else {
		s.rng.Seed(task.Seed) // the state of a fresh rand.NewSource(task.Seed)
	}
	if s.env != nil {
		s.env.Release()
	}
	s.env = factory(s.rng.Int63())
	if cap(s.trans) < steps {
		s.trans = make([]Transition, 0, steps)
	}
	s.trans = s.trans[:0]
	s.backing = nn.Grow(s.backing, steps*obsDim)
	s.w, s.steps, s.epSteps, s.rewardSum = task.Weights, steps, 0, 0
}

// CollectTasks collects one rollout per task, all of them in lockstep on the
// calling goroutine. Each round gathers the unfinished tasks' observations
// into one batch, runs one PolicyForwardBatch over it, samples each task's
// action from the task's own random stream and steps each task's
// environment. A task leaves the batch once it has its Steps transitions.
// After the last round, one ValueForwardBatch per task over all of its
// observations fills the rollout's values. Every task draws its random
// numbers in the order a lone Collect draws them, and every row of a
// batched forward has the bits of the one-row forward, so rollouts[i] is
// byte for byte what Collect returns for task i alone. The returned slice
// is the collector's storage.
func (c *Collector) CollectTasks(agent BatchActorCritic, factory EnvFactory, cfg CollectConfig, tasks []CollectTask) []Rollout {
	if cfg.MaxAction <= 0 {
		cfg.MaxAction = 2
	}
	obsDim := agent.ObsSize()
	for len(c.tasks) < len(tasks) {
		c.tasks = append(c.tasks, taskState{})
	}
	live := c.live[:0]
	for i, task := range tasks {
		s := &c.tasks[i]
		s.start(task, cfg.Steps, obsDim, factory)
		if s.steps > 0 {
			live = append(live, i)
		}
	}

	for len(live) > 0 {
		k := len(live)
		c.obs = nn.Grow(c.obs, k*obsDim)
		for j, i := range live {
			s := &c.tasks[i]
			t := len(s.trans)
			obs := s.backing[t*obsDim : (t+1)*obsDim : (t+1)*obsDim]
			fillObs(obs, s.env, s.w, cfg.IncludeWeights)
			copy(c.obs[j*obsDim:(j+1)*obsDim], obs)
			s.trans = append(s.trans, Transition{Obs: obs})
		}

		means, std := agent.PolicyForwardBatch(c.obs, k)
		next := live[:0]
		for j, i := range live {
			s := &c.tasks[i]
			tr := &s.trans[len(s.trans)-1]
			tr.Action = nn.GaussianSample(s.rng, means[j], std)
			tr.LogProb = nn.GaussianLogProb(tr.Action, means[j], std)

			s.env.ApplyAction(math.Max(-cfg.MaxAction, math.Min(cfg.MaxAction, tr.Action)))
			oThr, oLat, oLoss := gym.RewardTerms(s.env.Step())
			tr.Reward = s.w.Reward(oThr, oLat, oLoss)
			s.rewardSum += tr.Reward

			s.epSteps++
			tr.Done = cfg.EpisodeLen > 0 && s.epSteps >= cfg.EpisodeLen || s.env.Done()
			if len(s.trans) == s.steps {
				continue // finished: the next episode would never be stepped
			}
			if tr.Done {
				s.epSteps = 0
				s.env.Release()
				s.env = factory(s.rng.Int63())
			}
			next = append(next, i)
		}
		live = next
	}
	c.live = live

	c.out = c.out[:0]
	for i := range tasks {
		s := &c.tasks[i]
		if n := len(s.trans); n > 0 {
			for t, v := range agent.ValueForwardBatch(s.backing[:n*obsDim], n) {
				s.trans[t].Value = v
			}
		}
		c.out = append(c.out, Rollout{Trans: s.trans, MeanReward: s.rewardSum / float64(len(s.trans))})
	}
	return c.out
}
