package core

import (
	"math"
	"math/rand"
	"testing"

	"mocc/internal/gym"
	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// batchTestFactory mirrors the rl package's test link.
func batchTestFactory(seed int64) *gym.Env {
	return gym.New(gym.Config{
		Bandwidth:  trace.Constant(1000),
		LatencyMs:  20,
		QueuePkts:  100,
		HistoryLen: 4,
		Seed:       seed,
	})
}

var batchW = objective.Weights{Thr: 0.8, Lat: 0.1, Loss: 0.1}

// serialModel hides the Model's batched kernels so PPO exercises the
// per-sample fallback path.
type serialModel struct{ rl.ActorCritic }

// TestModelBatchMatchesSingle compares the preference-sub-network batched
// forward against per-row single-sample evaluation.
func TestModelBatchMatchesSingle(t *testing.T) {
	m := NewModel(4, 9)
	const n = 6
	obsDim := m.ObsSize()
	rng := rand.New(rand.NewSource(10))
	obs := make([]float64, n*obsDim)
	for i := range obs {
		obs[i] = rng.Float64() - 0.5
	}

	means, std := m.PolicyForwardBatch(obs, n)
	meansCopy := append([]float64(nil), means...)
	vs := m.ValueForwardBatch(obs, n)
	vsCopy := append([]float64(nil), vs...)

	for r := 0; r < n; r++ {
		row := obs[r*obsDim : (r+1)*obsDim]
		m1, s1 := m.PolicyForward(row)
		if math.Abs(m1-meansCopy[r]) > 1e-9 || s1 != std {
			t.Errorf("row %d: batched policy (%v, %v) vs single (%v, %v)",
				r, meansCopy[r], std, m1, s1)
		}
		if v1 := m.ValueForward(row); math.Abs(v1-vsCopy[r]) > 1e-9 {
			t.Errorf("row %d: batched value %v vs single %v", r, vsCopy[r], v1)
		}
	}
}

// TestModelBatchedPPOMatchesSerial runs full PPO iterations on the MOCC
// model through the batched and per-sample paths and requires identical
// parameters within 1e-9.
func TestModelBatchedPPOMatchesSerial(t *testing.T) {
	cfg := rl.DefaultPPOConfig()
	collectCfg := rl.CollectConfig{Steps: 96, EpisodeLen: 32, IncludeWeights: true}

	mBatched := NewModel(4, 13)
	mSerial := NewModel(4, 13)
	ppoBatched := rl.NewPPO(mBatched, cfg)
	ppoSerial := rl.NewPPO(serialModel{mSerial}, cfg)

	for iter := 0; iter < 2; iter++ {
		seed := int64(300 + iter)
		roB := rl.Collect(mBatched, batchTestFactory, batchW, collectCfg, seed)
		roS := rl.Collect(mSerial, batchTestFactory, batchW, collectCfg, seed)
		ppoBatched.Update(roB)
		ppoSerial.Update(roS)
	}

	pa, pb := mBatched.AllParams(), mSerial.AllParams()
	for i := range pa {
		for j := range pa[i].Value {
			if d := math.Abs(pa[i].Value[j] - pb[i].Value[j]); d > 1e-9 {
				t.Fatalf("param %s[%d] diverges by %v after batched vs serial PPO",
					pa[i].Name, j, d)
			}
		}
	}
}

// TestModelBatchedTrainingDeterministic: a short offline training shard
// through the batched engine is bitwise-reproducible for a fixed seed.
func TestModelBatchedTrainingDeterministic(t *testing.T) {
	run := func() *Model {
		m := NewModel(4, 3)
		cfg := TrainConfig{
			Omega:           6,
			BootstrapIters:  1,
			BootstrapCycles: 1,
			TraverseIters:   0,
			TraverseCycles:  0,
			RolloutSteps:    64,
			EpisodeLen:      32,
			Workers:         1,
			Seed:            2,
			PPO:             rl.DefaultPPOConfig(),
			Envs:            batchTestFactory,
		}
		tr, err := NewOfflineTrainer(m, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := tr.Run(); err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	pa, pb := a.AllParams(), b.AllParams()
	for i := range pa {
		for j := range pa[i].Value {
			if pa[i].Value[j] != pb[i].Value[j] {
				t.Fatalf("offline training not bitwise deterministic: %s[%d]",
					pa[i].Name, j)
			}
		}
	}
}

// TestPPORatioOneBeforeFirstStep: before any optimizer step, the log-prob
// the batched update computes for a transition — the preference
// sub-network and trunk assembled over the batch (PolicyForwardBatch), then
// GaussianLogProbVec — is bit for bit the LogProb collection recorded from
// the n = 1 forward, so every PPO ratio π_new/π_old starts at exactly 1.
// The batches run below, at and past the column path's row block.
func TestPPORatioOneBeforeFirstStep(t *testing.T) {
	const steps = 130
	m := NewModel(4, 13)
	ro := rl.Collect(m, batchTestFactory, batchW,
		rl.CollectConfig{Steps: steps, EpisodeLen: 32, IncludeWeights: true}, 17)
	obsDim := m.ObsSize()
	for _, n := range []int{2, 3, 4, 5, 13, 64, steps} {
		obs := make([]float64, n*obsDim)
		act := make([]float64, n)
		for k, tr := range ro.Trans[:n] {
			copy(obs[k*obsDim:], tr.Obs)
			act[k] = tr.Action
		}
		means, std := m.PolicyForwardBatch(obs, n)
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
