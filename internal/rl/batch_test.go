package rl

import (
	"math"
	"testing"

	"mocc/internal/nn"
)

// serialOnly hides an agent's batched kernels so PPO takes the per-sample
// fallback path; the dynamic type only exposes the ActorCritic method set.
type serialOnly struct{ ActorCritic }

// paramsMaxDiff returns the largest absolute element-wise difference
// between two agents' full parameter sets.
func paramsMaxDiff(t *testing.T, a, b *PlainAgent) float64 {
	t.Helper()
	pa, pb := a.AllParams(), b.AllParams()
	if len(pa) != len(pb) {
		t.Fatalf("param count mismatch: %d vs %d", len(pa), len(pb))
	}
	var worst float64
	for i := range pa {
		for j := range pa[i].Value {
			if d := math.Abs(pa[i].Value[j] - pb[i].Value[j]); d > worst {
				worst = d
			}
		}
	}
	return worst
}

// TestBatchedPPOMatchesSerial is the load-bearing equivalence property:
// running PPO through the batched minibatch path must produce the same
// parameters as the per-sample path, within 1e-9, over several full
// update iterations on identically seeded agents and rollouts.
func TestBatchedPPOMatchesSerial(t *testing.T) {
	cfg := DefaultPPOConfig()
	collectCfg := CollectConfig{Steps: 128, EpisodeLen: 32}

	batchedAgent := NewPlainAgent(12, 7)
	serialAgent := NewPlainAgent(12, 7)
	ppoBatched := NewPPO(batchedAgent, cfg)
	ppoSerial := NewPPO(serialOnly{serialAgent}, cfg)

	for iter := 0; iter < 3; iter++ {
		seed := int64(100 + iter)
		roB := Collect(batchedAgent, testFactory, wThr, collectCfg, seed)
		roS := Collect(serialAgent, testFactory, wThr, collectCfg, seed)
		stB := ppoBatched.Update(roB)
		stS := ppoSerial.Update(roS)

		if d := paramsMaxDiff(t, batchedAgent, serialAgent); d > 1e-9 {
			t.Fatalf("iter %d: batched vs serial params diverge by %v", iter, d)
		}
		if math.Abs(stB.PolicyLoss-stS.PolicyLoss) > 1e-9 ||
			math.Abs(stB.ValueLoss-stS.ValueLoss) > 1e-9 ||
			math.Abs(stB.Entropy-stS.Entropy) > 1e-9 ||
			stB.ClipFraction != stS.ClipFraction {
			t.Fatalf("iter %d: stats diverge: batched %+v vs serial %+v", iter, stB, stS)
		}
	}
}

// TestBatchedPPOGradientsMatchSerial checks the accumulated gradients of a
// single minibatch (no optimizer step) rather than post-update parameters:
// one batched forward/backward must reproduce the per-sample loop's
// gradients within 1e-9.
func TestBatchedPPOGradientsMatchSerial(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.Epochs = 1
	cfg.MinibatchSize = 0 // one minibatch spanning the whole rollout
	cfg.MaxGradNorm = 0   // compare raw accumulated gradients
	cfg.LR = 0            // optimizer step becomes a no-op on parameters

	batchedAgent := NewPlainAgent(12, 11)
	serialAgent := NewPlainAgent(12, 11)
	collectCfg := CollectConfig{Steps: 64, EpisodeLen: 16}
	roB := Collect(batchedAgent, testFactory, wThr, collectCfg, 9)
	roS := Collect(serialAgent, testFactory, wThr, collectCfg, 9)

	NewPPO(batchedAgent, cfg).Update(roB)
	NewPPO(serialOnly{serialAgent}, cfg).Update(roS)

	pa, pb := batchedAgent.AllParams(), serialAgent.AllParams()
	for i := range pa {
		for j := range pa[i].Grad {
			if d := math.Abs(pa[i].Grad[j] - pb[i].Grad[j]); d > 1e-9 {
				t.Fatalf("gradient %s[%d] diverges by %v (batched %v, serial %v)",
					pa[i].Name, j, d, pa[i].Grad[j], pb[i].Grad[j])
			}
		}
	}
}

// TestBatchedTrainingDeterministic verifies that a short batched training
// run is bitwise-reproducible for a fixed seed.
func TestBatchedTrainingDeterministic(t *testing.T) {
	run := func() *PlainAgent {
		agent := NewPlainAgent(12, 5)
		ppo := NewPPO(agent, DefaultPPOConfig())
		for iter := 0; iter < 3; iter++ {
			ro := Collect(agent, testFactory, wThr,
				CollectConfig{Steps: 128, EpisodeLen: 32}, int64(200+iter))
			ppo.Update(ro)
		}
		return agent
	}
	a, b := run(), run()
	pa, pb := a.AllParams(), b.AllParams()
	for i := range pa {
		for j := range pa[i].Value {
			if pa[i].Value[j] != pb[i].Value[j] {
				t.Fatalf("training not bitwise deterministic: %s[%d] %v vs %v",
					pa[i].Name, j, pa[i].Value[j], pb[i].Value[j])
			}
		}
	}
}

// TestPlainAgentBatchMatchesSingle checks the agent-level batched kernels
// against repeated single-sample calls.
func TestPlainAgentBatchMatchesSingle(t *testing.T) {
	const obsLen, n = 12, 7
	a := NewPlainAgent(obsLen, 3)
	ro := Collect(a, testFactory, wThr, CollectConfig{Steps: n, EpisodeLen: 4}, 17)

	obs := make([]float64, n*obsLen)
	for k, tr := range ro.Trans {
		copy(obs[k*obsLen:], tr.Obs)
	}
	means, std := a.PolicyForwardBatch(obs, n)
	meansCopy := append([]float64(nil), means...)
	vs := a.ValueForwardBatch(obs, n)
	vsCopy := append([]float64(nil), vs...)

	for k, tr := range ro.Trans {
		m1, s1 := a.PolicyForward(tr.Obs)
		if math.Abs(m1-meansCopy[k]) > 1e-9 || s1 != std {
			t.Errorf("sample %d: batched mean/std (%v, %v) vs single (%v, %v)",
				k, meansCopy[k], std, m1, s1)
		}
		if v1 := a.ValueForward(tr.Obs); math.Abs(v1-vsCopy[k]) > 1e-9 {
			t.Errorf("sample %d: batched value %v vs single %v", k, vsCopy[k], v1)
		}
	}
}

// TestPPORatioOneBeforeFirstStep: before any optimizer step, the log-prob
// the batched update computes for a transition (PolicyForwardBatch, then
// GaussianLogProbVec) is bit for bit the LogProb collection recorded from
// the n = 1 forward, so every PPO ratio π_new/π_old starts at exactly 1.
// The batches run below, at and past the column path's row block.
func TestPPORatioOneBeforeFirstStep(t *testing.T) {
	const obsLen, steps = 12, 130
	a := NewPlainAgent(obsLen, 3)
	ro := Collect(a, testFactory, wThr, CollectConfig{Steps: steps, EpisodeLen: 32}, 17)
	for _, n := range []int{2, 3, 4, 5, 13, 64, steps} {
		obs := make([]float64, n*obsLen)
		act := make([]float64, n)
		for k, tr := range ro.Trans[:n] {
			copy(obs[k*obsLen:], tr.Obs)
			act[k] = tr.Action
		}
		means, std := a.PolicyForwardBatch(obs, n)
		lp := make([]float64, n)
		nn.GaussianLogProbVec(lp, act, means, std)
		differ := 0
		for k, tr := range ro.Trans[:n] {
			if math.Float64bits(lp[k]) != math.Float64bits(tr.LogProb) {
				differ++
			}
		}
		if differ > 0 {
			t.Errorf("n %d: %d of %d batched log-probs differ from the rollout's LogProb", n, differ, n)
		}
	}
}
