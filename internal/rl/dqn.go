package rl

import (
	"math"
	"math/rand"

	"mocc/internal/gym"
	"mocc/internal/nn"
	"mocc/internal/objective"
)

// DQNConfig holds Deep Q-Network hyperparameters for the MOCC-DQN ablation
// (Figure 18): the action space is discretized, which is exactly the
// handicap the paper demonstrates against continuous-action PPO.
type DQNConfig struct {
	// Actions is the number of discrete rate-change actions, spread
	// uniformly over [-MaxAction, MaxAction].
	Actions   int
	MaxAction float64
	Gamma     float64
	LR        float64
	// EpsilonStart/End/DecaySteps schedule epsilon-greedy exploration.
	EpsilonStart, EpsilonEnd float64
	EpsilonDecaySteps        int
	BufferSize               int
	BatchSize                int
	// TargetSync copies the online network to the target every N updates.
	TargetSync int
	// TrainEvery performs one gradient step per this many env steps.
	TrainEvery int
	Seed       int64
}

// DefaultDQNConfig returns reasonable DQN hyperparameters aligned with the
// PPO setup (same γ and learning rate).
func DefaultDQNConfig() DQNConfig {
	return DQNConfig{
		Actions:           11,
		MaxAction:         2,
		Gamma:             0.99,
		LR:                0.001,
		EpsilonStart:      1.0,
		EpsilonEnd:        0.05,
		EpsilonDecaySteps: 5000,
		BufferSize:        20000,
		BatchSize:         64,
		TargetSync:        200,
		TrainEvery:        4,
		Seed:              1,
	}
}

// dqnSample is one stored transition.
type dqnSample struct {
	obs     []float64
	action  int
	reward  float64
	nextObs []float64
	done    bool
}

// ReplayBuffer is a fixed-capacity ring buffer of transitions.
type ReplayBuffer struct {
	buf  []dqnSample
	next int
	full bool
}

// NewReplayBuffer creates a buffer holding up to capacity transitions.
func NewReplayBuffer(capacity int) *ReplayBuffer {
	if capacity < 1 {
		capacity = 1
	}
	return &ReplayBuffer{buf: make([]dqnSample, capacity)}
}

// Len returns the number of stored transitions.
func (b *ReplayBuffer) Len() int {
	if b.full {
		return len(b.buf)
	}
	return b.next
}

// Add stores a transition, evicting the oldest when full.
func (b *ReplayBuffer) Add(s dqnSample) {
	b.buf[b.next] = s
	b.next++
	if b.next == len(b.buf) {
		b.next = 0
		b.full = true
	}
}

// Sample draws n transitions uniformly with replacement.
func (b *ReplayBuffer) Sample(rng *rand.Rand, n int) []dqnSample {
	out := make([]dqnSample, n)
	size := b.Len()
	for i := range out {
		out[i] = b.buf[rng.Intn(size)]
	}
	return out
}

// DQNAgent is a discrete-action Q-learning controller over the same
// observation space as the PPO agents.
type DQNAgent struct {
	cfg     DQNConfig
	online  *nn.MLP
	target  *nn.MLP
	opt     *nn.Adam
	rng     *rand.Rand
	buffer  *ReplayBuffer
	actions []float64 // discrete action values
	steps   int
	updates int
}

// NewDQNAgent builds a DQN over observations of length obsLen.
func NewDQNAgent(obsLen int, cfg DQNConfig) *DQNAgent {
	rng := rand.New(rand.NewSource(cfg.Seed))
	actions := make([]float64, cfg.Actions)
	for i := range actions {
		if cfg.Actions == 1 {
			actions[i] = 0
		} else {
			actions[i] = -cfg.MaxAction + 2*cfg.MaxAction*float64(i)/float64(cfg.Actions-1)
		}
	}
	a := &DQNAgent{
		cfg:     cfg,
		online:  nn.NewMLP(rng, obsLen, 64, 32, cfg.Actions),
		target:  nn.NewMLP(rng, obsLen, 64, 32, cfg.Actions),
		rng:     rng,
		buffer:  NewReplayBuffer(cfg.BufferSize),
		actions: actions,
	}
	a.opt = nn.NewAdam(a.online.Params(), cfg.LR)
	a.syncTarget()
	return a
}

// syncTarget copies online weights into the target network.
func (a *DQNAgent) syncTarget() {
	if err := nn.CopyParams(a.target.Params(), a.online.Params()); err != nil {
		panic("rl: dqn target architecture mismatch: " + err.Error())
	}
}

// Actions exposes the discrete action grid for tests.
func (a *DQNAgent) Actions() []float64 { return a.actions }

// epsilon returns the current exploration rate.
func (a *DQNAgent) epsilon() float64 {
	c := a.cfg
	if c.EpsilonDecaySteps <= 0 {
		return c.EpsilonEnd
	}
	frac := float64(a.steps) / float64(c.EpsilonDecaySteps)
	if frac > 1 {
		frac = 1
	}
	return c.EpsilonStart + (c.EpsilonEnd-c.EpsilonStart)*frac
}

// Act returns the greedy action value for obs (deployment interface).
func (a *DQNAgent) Act(obs []float64) float64 {
	q := a.online.Forward(obs)
	return a.actions[nn.Argmax(q)]
}

// selectAction is epsilon-greedy during training.
func (a *DQNAgent) selectAction(obs []float64) int {
	if a.rng.Float64() < a.epsilon() {
		return a.rng.Intn(len(a.actions))
	}
	return nn.Argmax(a.online.Forward(obs))
}

// trainStep performs one minibatch TD update and returns the mean TD loss.
func (a *DQNAgent) trainStep() float64 {
	if a.buffer.Len() < a.cfg.BatchSize {
		return 0
	}
	batch := a.buffer.Sample(a.rng, a.cfg.BatchSize)
	nn.ZeroGrad(a.online.Params())
	var loss float64
	for _, s := range batch {
		tq := a.target.Forward(s.nextObs)
		targetV := s.reward
		if !s.done {
			targetV += a.cfg.Gamma * tq[nn.Argmax(tq)]
		}
		q := a.online.Forward(s.obs)
		td := q[s.action] - targetV
		loss += 0.5 * td * td
		grad := make([]float64, len(q))
		grad[s.action] = td / float64(len(batch))
		a.online.Backward(grad)
	}
	nn.ClipGradNorm(a.online.Params(), 1)
	a.opt.Step()
	a.updates++
	if a.cfg.TargetSync > 0 && a.updates%a.cfg.TargetSync == 0 {
		a.syncTarget()
	}
	return loss / float64(a.cfg.BatchSize)
}

// TrainEpisodes runs DQN training for the given number of environment steps
// under objective w (weights embedded in observations when includeWeights),
// returning the per-episode mean rewards as a learning curve.
func (a *DQNAgent) TrainEpisodes(factory EnvFactory, w objective.Weights, includeWeights bool, totalSteps, episodeLen int) []float64 {
	var curve []float64
	env := factory(a.rng.Int63())
	epReward, epSteps := 0.0, 0

	obs := dqnObs(env, w, includeWeights)
	for step := 0; step < totalSteps; step++ {
		ai := a.selectAction(obs)
		env.ApplyAction(a.actions[ai])
		m := env.Step()
		oThr, oLat, oLoss := gym.RewardTerms(m)
		reward := w.Reward(oThr, oLat, oLoss)
		epReward += reward
		epSteps++

		done := episodeLen > 0 && epSteps >= episodeLen
		nextObs := dqnObs(env, w, includeWeights)
		a.buffer.Add(dqnSample{obs: obs, action: ai, reward: reward, nextObs: nextObs, done: done})
		obs = nextObs
		a.steps++

		if a.cfg.TrainEvery > 0 && a.steps%a.cfg.TrainEvery == 0 {
			a.trainStep()
		}

		if done {
			curve = append(curve, epReward/float64(epSteps))
			epReward, epSteps = 0, 0
			env.Release()
			env = factory(a.rng.Int63())
			obs = dqnObs(env, w, includeWeights)
		}
	}
	env.Release()
	return curve
}

// dqnObs mirrors buildObs for the DQN path.
func dqnObs(env *gym.Env, w objective.Weights, includeWeights bool) []float64 {
	obs := env.Observation()
	if includeWeights {
		obs = append(obs, w.Thr, w.Lat, w.Loss)
	}
	return obs
}

// EvaluateActor runs any deterministic actor (PPO mean policy, DQN greedy
// policy, or a learned MOCC policy) on an environment and returns the mean
// Equation 2 reward over steps intervals.
func EvaluateActor(act func(obs []float64) float64, env *gym.Env, w objective.Weights, includeWeights bool, steps int) float64 {
	env.Reset()
	var sum float64
	for i := 0; i < steps; i++ {
		obs := dqnObs(env, w, includeWeights)
		a := math.Max(-2, math.Min(2, act(obs)))
		env.ApplyAction(a)
		m := env.Step()
		oThr, oLat, oLoss := gym.RewardTerms(m)
		sum += w.Reward(oThr, oLat, oLoss)
	}
	return sum / float64(steps)
}
