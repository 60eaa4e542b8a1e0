package rl

import (
	"fmt"
	"math"
	"math/rand"

	"mocc/internal/nn"
)

// PPOConfig holds the Proximal Policy Optimization hyperparameters; the
// defaults follow Table 2 and §5 of the paper (and stable-baselines, which
// the authors built on).
type PPOConfig struct {
	// Gamma is the reward discount factor (Table 2: 0.99).
	Gamma float64
	// ClipEps is the surrogate clipping threshold ε (§5: 0.2).
	ClipEps float64
	// LR is the Adam learning rate (Table 2: 0.001).
	LR float64
	// EntropyInit/EntropyFinal/EntropyDecayIters implement the paper's β
	// schedule: decay from 1 to 0.1 over 1000 iterations (§5).
	EntropyInit       float64
	EntropyFinal      float64
	EntropyDecayIters int
	// Epochs is the number of passes over each rollout per update.
	Epochs int
	// MinibatchSize splits the rollout for gradient steps.
	MinibatchSize int
	// ValueCoef scales the critic loss.
	ValueCoef float64
	// MaxGradNorm clips the global gradient norm per minibatch.
	MaxGradNorm float64
	// Seed drives minibatch shuffling.
	Seed int64
	// Workers > 1 shards every minibatch's rows across that many goroutines,
	// each running batched forward/backward on a value-sharing replica of
	// the agent, with per-worker gradients reduced into the master in fixed
	// worker order before the optimizer step. Requires the agent to
	// implement ReplicaAgent (otherwise the update ignores Workers). 0 or 1
	// keeps whole minibatches on the calling goroutine. Minibatch composition
	// is independent of Workers, so a fixed seed and worker count give
	// bit-deterministic training; different worker counts differ only in
	// floating-point summation order (parallel shards associate gradient
	// sums differently than one full-batch pass).
	Workers int
}

// DefaultPPOConfig returns the paper's hyperparameters.
func DefaultPPOConfig() PPOConfig {
	return PPOConfig{
		Gamma:             0.99,
		ClipEps:           0.2,
		LR:                0.001,
		EntropyInit:       1.0,
		EntropyFinal:      0.1,
		EntropyDecayIters: 1000,
		Epochs:            4,
		MinibatchSize:     64,
		ValueCoef:         0.5,
		MaxGradNorm:       0.5,
		Seed:              1,
	}
}

// UpdateStats reports diagnostics from one PPO update.
type UpdateStats struct {
	PolicyLoss   float64
	ValueLoss    float64
	Entropy      float64
	ClipFraction float64
	Beta         float64 // entropy coefficient used
	MeanReward   float64 // from the rollout(s)
}

// PPO trains an ActorCritic with the clipped surrogate objective
// (Equations 3-5). When the agent implements BatchActorCritic, each
// minibatch runs as one batched forward/backward through the actor and one
// through the critic over reusable scratch buffers, on the calling
// goroutine; other agents take a per-sample fallback path (the original
// implementation). With Cfg.Workers > 1 and a ReplicaAgent, minibatches
// instead shard their rows across a data-parallel worker pool (see
// update_parallel.go).
type PPO struct {
	Agent     ActorCritic
	Cfg       PPOConfig
	actorOpt  *nn.Adam
	criticOpt *nn.Adam
	rng       *rand.Rand
	iter      int

	// Cached parameter slices (ActorParams/CriticParams allocate).
	actorPs  []*nn.Param
	criticPs []*nn.Param

	idx   []int        // minibatch shuffle scratch
	trans []Transition // rollout gather scratch
	eng   mbEngine     // whole-minibatch engine over Agent (agent nil when it is not a BatchActorCritic)
	pool  *updatePool  // data-parallel engine, built lazily when Workers > 1
}

// NewPPO builds a trainer around the agent.
func NewPPO(agent ActorCritic, cfg PPOConfig) *PPO {
	p := &PPO{
		Agent:    agent,
		Cfg:      cfg,
		actorPs:  agent.ActorParams(),
		criticPs: agent.CriticParams(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
	}
	p.actorOpt = nn.NewAdam(p.actorPs, cfg.LR)
	p.criticOpt = nn.NewAdam(p.criticPs, cfg.LR)
	if batched, ok := agent.(BatchActorCritic); ok {
		p.eng.agent = batched
	}
	return p
}

// Iter returns the number of PPO updates applied.
func (p *PPO) Iter() int { return p.iter }

// SetIter overrides the iteration counter (used when resuming a transferred
// model so the entropy schedule continues from the right point).
func (p *PPO) SetIter(i int) { p.iter = i }

// ResetOptimizers clears Adam state, e.g. after transferring weights to a
// new objective so stale momentum does not leak across tasks.
func (p *PPO) ResetOptimizers() {
	p.actorOpt.Reset()
	p.criticOpt.Reset()
}

// Beta returns the entropy coefficient for the current iteration, following
// the paper's 1 -> 0.1 decay over 1000 iterations.
func (p *PPO) Beta() float64 {
	c := p.Cfg
	if c.EntropyDecayIters <= 0 {
		return c.EntropyFinal
	}
	frac := float64(p.iter) / float64(c.EntropyDecayIters)
	if frac > 1 {
		frac = 1
	}
	return c.EntropyInit + (c.EntropyFinal-c.EntropyInit)*frac
}

// Update performs one PPO iteration on a single rollout.
func (p *PPO) Update(ro Rollout) UpdateStats {
	return p.UpdateMulti([]Rollout{ro})
}

// UpdateMulti performs one PPO iteration over several rollouts jointly,
// averaging their losses — this is the requirement-replay objective of
// Equation 6 when called with the new-objective and replayed-objective
// rollouts.
func (p *PPO) UpdateMulti(rollouts []Rollout) UpdateStats {
	all := p.trans[:0]
	var rewardSum float64
	for i := range rollouts {
		rollouts[i].ComputeReturns(p.Cfg.Gamma)
		all = append(all, rollouts[i].Trans...)
		rewardSum += rollouts[i].MeanReward
	}
	p.trans = all
	if len(all) == 0 {
		return UpdateStats{}
	}
	beta := p.Beta()
	stats := UpdateStats{Beta: beta, MeanReward: rewardSum / float64(len(rollouts))}

	if cap(p.idx) < len(all) {
		p.idx = make([]int, len(all))
	}
	idx := p.idx[:len(all)]
	for i := range idx {
		idx[i] = i
	}

	mb := p.Cfg.MinibatchSize
	if mb <= 0 || mb > len(all) {
		mb = len(all)
	}

	pool := p.ensurePool()
	if pool != nil {
		pool.begin(all)
		defer pool.end()
	}

	var sums lossSums
	for epoch := 0; epoch < max(p.Cfg.Epochs, 1); epoch++ {
		// The shuffle consumes the rng identically for every worker count,
		// so minibatch composition never depends on Workers.
		p.rng.Shuffle(len(idx), func(i, j int) { idx[i], idx[j] = idx[j], idx[i] })
		for start := 0; start < len(idx); start += mb {
			batch := idx[start:min(start+mb, len(idx))]

			nn.ZeroGrad(p.actorPs)
			nn.ZeroGrad(p.criticPs)

			switch {
			case pool != nil:
				pool.runMinibatch(batch, beta)
				pool.merge(&sums)
			case p.eng.agent != nil:
				p.eng.run(&p.Cfg, all, batch, float64(len(batch)), beta)
				sums.add(&p.eng.part)
			default:
				p.minibatchSerial(all, batch, beta, &sums)
			}

			if p.Cfg.MaxGradNorm > 0 {
				nn.ClipGradNorm(p.actorPs, p.Cfg.MaxGradNorm)
				nn.ClipGradNorm(p.criticPs, p.Cfg.MaxGradNorm)
			}
			p.actorOpt.Step()
			p.criticOpt.Step()
		}
	}

	if sums.lossCount > 0 {
		stats.PolicyLoss = sums.policyLoss / sums.lossCount
		stats.ValueLoss = sums.valueLoss / sums.lossCount
		stats.Entropy = sums.entropy / sums.lossCount
	}
	if sums.sampleCount > 0 {
		stats.ClipFraction = sums.clipCount / sums.sampleCount
	}
	p.iter++
	return stats
}

// lossSums are the loss statistics an update accumulates: per minibatch
// shard in an mbEngine, then folded into the update's running total.
type lossSums struct {
	policyLoss, valueLoss, entropy    float64
	lossCount, clipCount, sampleCount float64
}

// add folds o into s.
func (s *lossSums) add(o *lossSums) {
	s.policyLoss += o.policyLoss
	s.valueLoss += o.valueLoss
	s.entropy += o.entropy
	s.lossCount += o.lossCount
	s.clipCount += o.clipCount
	s.sampleCount += o.sampleCount
}

// mbEngine accumulates the gradients of one minibatch shard with a single
// batched forward/backward through the actor and critic, over its own
// scratch buffers and partial-statistic accumulators — the unit of work of
// both the whole-minibatch path (one engine spanning the minibatch) and the
// data-parallel path (one engine per worker, each over a row shard). It is
// gradient-equivalent to minibatchSerial: samples are processed in the same
// order and the batched forward is bitwise the per-sample one (so before the
// first optimizer step every ratio is exactly 1), but the backward's kernels
// associate the gradient sums over the batch differently, so gradients match
// the per-sample path to tight tolerance (~1e-9, pinned by the batch
// equivalence tests) rather than bitwise.
type mbEngine struct {
	agent BatchActorCritic

	obsBuf  []float64 // [n x ObsSize] gathered observations
	actBuf  []float64 // actions
	lpBuf   []float64 // current-policy log-probs
	gmBuf   []float64 // dlogpi/dmean
	gsBuf   []float64 // dlogpi/dlogstd
	dMean   []float64 // policy-mean loss gradients
	dLogStd []float64 // log-std loss gradients
	dV      []float64 // critic loss gradients

	part lossSums // statistics of the current shard pass
}

// run accumulates gradients for the batch rows into the engine agent's
// parameters and the rows' statistics into part. fn is the FULL minibatch
// row count (not the shard size): loss gradients divide by it so that
// summing shard gradients reproduces the full-minibatch mean regardless of
// how rows are sharded.
func (e *mbEngine) run(cfg *PPOConfig, all []Transition, batch []int, fn float64, beta float64) {
	n := len(batch)
	obsDim := e.agent.ObsSize()
	e.part = lossSums{}

	e.obsBuf = nn.Grow(e.obsBuf, n*obsDim)
	e.actBuf = nn.Grow(e.actBuf, n)
	e.lpBuf = nn.Grow(e.lpBuf, n)
	e.gmBuf = nn.Grow(e.gmBuf, n)
	e.gsBuf = nn.Grow(e.gsBuf, n)
	e.dMean = nn.Grow(e.dMean, n)
	e.dLogStd = nn.Grow(e.dLogStd, n)
	e.dV = nn.Grow(e.dV, n)

	for k, i := range batch {
		tr := &all[i]
		if len(tr.Obs) != obsDim {
			panic(fmt.Sprintf("rl: transition observation length %d, agent expects %d", len(tr.Obs), obsDim))
		}
		copy(e.obsBuf[k*obsDim:(k+1)*obsDim], tr.Obs)
		e.actBuf[k] = tr.Action
	}

	means, std := e.agent.PolicyForwardBatch(e.obsBuf, n)
	nn.GaussianLogProbVec(e.lpBuf, e.actBuf, means, std)
	nn.GaussianLogProbGradVec(e.gmBuf, e.gsBuf, e.actBuf, means, std)
	entropy := nn.GaussianEntropy(std)

	for k, i := range batch {
		tr := &all[i]
		dMean, dLogStd, surr := policySample(cfg, e.lpBuf[k], tr.LogProb, tr.Advantage,
			e.gmBuf[k], e.gsBuf[k], beta, &e.part)
		e.dMean[k] = dMean / fn
		e.dLogStd[k] = dLogStd / fn
		e.part.policyLoss += -surr
		e.part.entropy += entropy
	}
	e.agent.PolicyBackwardBatch(e.dMean, e.dLogStd)

	// Critic: 0.5·(V - R)².
	vs := e.agent.ValueForwardBatch(e.obsBuf, n)
	for k, i := range batch {
		diff := vs[k] - all[i].Return
		e.dV[k] = cfg.ValueCoef * diff / fn
		e.part.valueLoss += 0.5 * diff * diff
		e.part.lossCount++
	}
	e.agent.ValueBackwardBatch(e.dV)
}

// minibatchSerial is the per-sample fallback for agents without batched
// kernels; it shares the surrogate arithmetic with the batched path via
// policySample.
func (p *PPO) minibatchSerial(all []Transition, batch []int, beta float64, sums *lossSums) {
	n := float64(len(batch))
	for _, i := range batch {
		tr := &all[i]
		mean, std := p.Agent.PolicyForward(tr.Obs)
		logProb := nn.GaussianLogProb(tr.Action, mean, std)
		gm, gs := nn.GaussianLogProbGrad(tr.Action, mean, std)
		dMean, dLogStd, surr := policySample(&p.Cfg, logProb, tr.LogProb, tr.Advantage,
			gm, gs, beta, sums)
		p.Agent.PolicyBackward(dMean/n, dLogStd/n)
		sums.policyLoss += -surr
		sums.entropy += nn.GaussianEntropy(std)

		// Critic: 0.5·(V - R)².
		v := p.Agent.ValueForward(tr.Obs)
		dv := p.Cfg.ValueCoef * (v - tr.Return)
		p.Agent.ValueBackward(dv / n)
		sums.valueLoss += 0.5 * (v - tr.Return) * (v - tr.Return)
		sums.lossCount++
	}
}

// policySample computes one sample's clipped-surrogate loss gradient
// (Equations 3-5): the gradients of -min(r·A, clip(r)·A) - β·H with
// respect to the policy mean and log-std, plus the surrogate value for the
// loss statistics. It is the single source of the PPO arithmetic shared by
// the batched, data-parallel and per-sample paths.
func policySample(cfg *PPOConfig, logProb, oldLogProb, adv, gm, gs, beta float64,
	sums *lossSums) (dMean, dLogStd, surr float64) {
	ratio := math.Exp(logProb - oldLogProb)
	// Guard against numeric explosions on stale samples.
	if ratio > 20 {
		ratio = 20
	}

	clipped := ratio < 1-cfg.ClipEps || ratio > 1+cfg.ClipEps
	// Gradient of -min(r·A, clip(r)·A): zero when the clipped branch is
	// active AND it is the smaller one.
	useUnclipped := true
	if clipped {
		clipR := math.Max(1-cfg.ClipEps, math.Min(1+cfg.ClipEps, ratio))
		if clipR*adv < ratio*adv {
			useUnclipped = false
		}
		sums.clipCount++
	}
	sums.sampleCount++

	if useUnclipped {
		// d(-r·A)/dθ = -A·r·dlogπ/dθ.
		dMean = -adv * ratio * gm
		dLogStd = -adv * ratio * gs
	}
	// Entropy bonus: H = c + logStd, so d(-βH)/dlogStd = -β.
	dLogStd -= beta

	surr = math.Min(ratio*adv, math.Max(1-cfg.ClipEps, math.Min(1+cfg.ClipEps, ratio))*adv)
	return dMean, dLogStd, surr
}
