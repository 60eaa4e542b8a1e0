package rl

import (
	"math"
	"math/rand"
	"testing"

	"mocc/internal/gym"
	"mocc/internal/objective"
	"mocc/internal/trace"
)

// testFactory creates environments on a clean 1000 pkts/s, 20 ms link with
// per-seed randomized start rates.
func testFactory(seed int64) *gym.Env {
	return gym.New(gym.Config{
		Bandwidth:  trace.Constant(1000),
		LatencyMs:  20,
		QueuePkts:  100,
		HistoryLen: 4,
		Seed:       seed,
	})
}

var wThr = objective.Weights{Thr: 0.8, Lat: 0.1, Loss: 0.1}

func TestComputeReturnsDiscounting(t *testing.T) {
	ro := Rollout{Trans: []Transition{
		{Reward: 1}, {Reward: 1}, {Reward: 1, Done: true}, {Reward: 2},
	}}
	ro.ComputeReturns(0.5)
	// Episode 1: returns 1+0.5(1+0.5*1)=1.75, 1.5, 1. Episode 2: 2.
	want := []float64{1.75, 1.5, 1, 2}
	for i, tr := range ro.Trans {
		if math.Abs(tr.Return-want[i]) > 1e-12 {
			t.Errorf("return[%d] = %v, want %v", i, tr.Return, want[i])
		}
	}
}

func TestComputeReturnsNormalizesAdvantages(t *testing.T) {
	ro := Rollout{Trans: []Transition{
		{Reward: 1, Value: 0}, {Reward: 5, Value: 1}, {Reward: -3, Value: 2}, {Reward: 0, Value: -1},
	}}
	ro.ComputeReturns(0.9)
	var sum, sumSq float64
	for _, tr := range ro.Trans {
		sum += tr.Advantage
		sumSq += tr.Advantage * tr.Advantage
	}
	n := float64(len(ro.Trans))
	if math.Abs(sum/n) > 1e-9 {
		t.Errorf("advantage mean = %v, want 0", sum/n)
	}
	if math.Abs(sumSq/n-1) > 1e-6 {
		t.Errorf("advantage variance = %v, want 1", sumSq/n)
	}
}

func TestComputeReturnsEmpty(t *testing.T) {
	var ro Rollout
	ro.ComputeReturns(0.99) // must not panic
}

func TestPlainAgentShapes(t *testing.T) {
	a := NewPlainAgent(12, 1)
	if a.ObsSize() != 12 {
		t.Errorf("ObsSize = %d", a.ObsSize())
	}
	obs := make([]float64, 12)
	mean, std := a.PolicyForward(obs)
	if math.IsNaN(mean) || std <= 0 {
		t.Errorf("bad policy output: mean %v std %v", mean, std)
	}
	if v := a.ValueForward(obs); math.IsNaN(v) {
		t.Errorf("bad value: %v", v)
	}
	// logStd starts at 0 -> std = 1.
	if math.Abs(std-1) > 1e-12 {
		t.Errorf("initial std = %v, want 1", std)
	}
}

func TestPlainAgentCopyFrom(t *testing.T) {
	a := NewPlainAgent(6, 1)
	b := NewPlainAgent(6, 99)
	if err := b.CopyFrom(a); err != nil {
		t.Fatal(err)
	}
	obs := []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6}
	ma, _ := a.PolicyForward(obs)
	mb, _ := b.PolicyForward(obs)
	if ma != mb {
		t.Errorf("policies differ after CopyFrom: %v vs %v", ma, mb)
	}
	if va, vb := a.ValueForward(obs), b.ValueForward(obs); va != vb {
		t.Errorf("critics differ after CopyFrom: %v vs %v", va, vb)
	}
}

func TestCollectShapesAndDeterminism(t *testing.T) {
	agent := NewPlainAgent(12, 1)
	cfg := CollectConfig{Steps: 50, EpisodeLen: 20}
	a := Collect(agent, testFactory, wThr, cfg, 7)
	if len(a.Trans) != 50 {
		t.Fatalf("collected %d, want 50", len(a.Trans))
	}
	for i, tr := range a.Trans {
		if len(tr.Obs) != 12 {
			t.Fatalf("obs %d has len %d", i, len(tr.Obs))
		}
		if math.IsNaN(tr.Reward) || tr.Reward < 0 || tr.Reward > 1 {
			t.Fatalf("reward %d = %v outside [0,1]", i, tr.Reward)
		}
	}
	// Episode boundaries every 20 steps.
	if !a.Trans[19].Done || !a.Trans[39].Done {
		t.Error("episode boundaries not marked")
	}
	if a.Trans[10].Done {
		t.Error("spurious episode boundary")
	}
	b := Collect(agent, testFactory, wThr, cfg, 7)
	for i := range a.Trans {
		if a.Trans[i].Action != b.Trans[i].Action || a.Trans[i].Reward != b.Trans[i].Reward {
			t.Fatalf("collection not deterministic at %d", i)
		}
	}
}

func TestCollectIncludeWeights(t *testing.T) {
	agent := NewPlainAgent(15, 1)
	ro := Collect(agent, testFactory, wThr, CollectConfig{Steps: 5, IncludeWeights: true}, 1)
	obs := ro.Trans[0].Obs
	if len(obs) != 15 {
		t.Fatalf("obs len = %d, want 15", len(obs))
	}
	if obs[12] != 0.8 || obs[13] != 0.1 || obs[14] != 0.1 {
		t.Errorf("weights not appended: %v", obs[12:])
	}
}

func TestPPOBetaSchedule(t *testing.T) {
	agent := NewPlainAgent(12, 1)
	cfg := DefaultPPOConfig()
	p := NewPPO(agent, cfg)
	if b := p.Beta(); math.Abs(b-1.0) > 1e-9 {
		t.Errorf("initial beta = %v, want 1", b)
	}
	p.SetIter(500)
	if b := p.Beta(); math.Abs(b-0.55) > 1e-9 {
		t.Errorf("midpoint beta = %v, want 0.55", b)
	}
	p.SetIter(2000)
	if b := p.Beta(); math.Abs(b-0.1) > 1e-9 {
		t.Errorf("final beta = %v, want 0.1", b)
	}
}

// TestPPOLearnsThroughputObjective is the core learning smoke test: a few
// PPO iterations on a clean link must substantially improve the
// throughput-weighted reward over the untrained policy.
func TestPPOLearnsThroughputObjective(t *testing.T) {
	agent := NewPlainAgent(12, 1)
	cfg := DefaultPPOConfig()
	cfg.EntropyInit = 0.02 // small task: keep exploration noise modest
	cfg.EntropyFinal = 0.001
	cfg.EntropyDecayIters = 30
	ppo := NewPPO(agent, cfg)

	evalEnv := testFactory(12345)
	before := EvaluateActor(agent.Act, evalEnv, wThr, false, 200)

	collectCfg := CollectConfig{Steps: 512, EpisodeLen: 64}
	for iter := 0; iter < 40; iter++ {
		ro := Collect(agent, testFactory, wThr, collectCfg, int64(1000+iter))
		ppo.Update(ro)
	}

	after := EvaluateActor(agent.Act, evalEnv, wThr, false, 200)
	if after < before+0.05 {
		t.Errorf("PPO did not learn: reward %v -> %v", before, after)
	}
	if after < 0.5 {
		t.Errorf("trained reward %v too low for a clean link", after)
	}
}

func TestPPOUpdateStatsSane(t *testing.T) {
	agent := NewPlainAgent(12, 2)
	ppo := NewPPO(agent, DefaultPPOConfig())
	ro := Collect(agent, testFactory, wThr, CollectConfig{Steps: 128, EpisodeLen: 32}, 5)
	st := ppo.Update(ro)
	if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) || math.IsNaN(st.Entropy) {
		t.Errorf("NaN stats: %+v", st)
	}
	if st.ClipFraction < 0 || st.ClipFraction > 1 {
		t.Errorf("clip fraction = %v", st.ClipFraction)
	}
	if st.MeanReward <= 0 {
		t.Errorf("mean reward = %v", st.MeanReward)
	}
	if ppo.Iter() != 1 {
		t.Errorf("Iter = %d, want 1", ppo.Iter())
	}
}

func TestPPOUpdateMultiAveragesObjectives(t *testing.T) {
	// Equation 6: a joint update over two objectives must run and keep
	// parameters finite.
	agent := NewPlainAgent(15, 3)
	ppo := NewPPO(agent, DefaultPPOConfig())
	wLat := objective.Weights{Thr: 0.1, Lat: 0.8, Loss: 0.1}
	cfg := CollectConfig{Steps: 64, EpisodeLen: 32, IncludeWeights: true}
	r1 := Collect(agent, testFactory, wThr, cfg, 1)
	r2 := Collect(agent, testFactory, wLat, cfg, 2)
	st := ppo.UpdateMulti([]Rollout{r1, r2})
	if math.IsNaN(st.PolicyLoss) {
		t.Error("NaN policy loss")
	}
	for _, p := range agent.ActorParams() {
		for _, v := range p.Value {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite parameter after UpdateMulti")
			}
		}
	}
}

func TestPPOEmptyUpdate(t *testing.T) {
	agent := NewPlainAgent(12, 1)
	ppo := NewPPO(agent, DefaultPPOConfig())
	st := ppo.UpdateMulti(nil)
	if st.PolicyLoss != 0 {
		t.Errorf("empty update stats: %+v", st)
	}
}

func TestReplayBuffer(t *testing.T) {
	b := NewReplayBuffer(3)
	if b.Len() != 0 {
		t.Error("fresh buffer not empty")
	}
	for i := 0; i < 5; i++ {
		b.Add(dqnSample{reward: float64(i)})
	}
	if b.Len() != 3 {
		t.Errorf("Len = %d, want 3 (capacity)", b.Len())
	}
	// Oldest entries evicted: rewards {2,3,4} remain.
	rng := rand.New(rand.NewSource(1))
	for _, s := range b.Sample(rng, 50) {
		if s.reward < 2 || s.reward > 4 {
			t.Fatalf("sampled evicted entry: reward %v", s.reward)
		}
	}
}

func TestDQNActionGrid(t *testing.T) {
	cfg := DefaultDQNConfig()
	cfg.Actions = 5
	cfg.MaxAction = 2
	a := NewDQNAgent(12, cfg)
	want := []float64{-2, -1, 0, 1, 2}
	got := a.Actions()
	if len(got) != len(want) {
		t.Fatalf("actions = %v", got)
	}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-12 {
			t.Errorf("action[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestDQNEpsilonDecay(t *testing.T) {
	cfg := DefaultDQNConfig()
	a := NewDQNAgent(12, cfg)
	if e := a.epsilon(); math.Abs(e-1.0) > 1e-9 {
		t.Errorf("initial epsilon = %v", e)
	}
	a.steps = cfg.EpsilonDecaySteps * 2
	if e := a.epsilon(); math.Abs(e-cfg.EpsilonEnd) > 1e-9 {
		t.Errorf("final epsilon = %v, want %v", e, cfg.EpsilonEnd)
	}
}

func TestDQNTrainsWithoutBlowup(t *testing.T) {
	cfg := DefaultDQNConfig()
	cfg.BufferSize = 2000
	cfg.EpsilonDecaySteps = 500
	a := NewDQNAgent(12, cfg)
	curve := a.TrainEpisodes(testFactory, wThr, false, 1200, 60)
	if len(curve) != 20 {
		t.Fatalf("episodes = %d, want 20", len(curve))
	}
	for i, r := range curve {
		if math.IsNaN(r) || r < 0 || r > 1 {
			t.Fatalf("episode %d reward %v out of range", i, r)
		}
	}
	// Greedy policy must produce finite actions within the grid.
	obs := make([]float64, 12)
	act := a.Act(obs)
	if act < -cfg.MaxAction || act > cfg.MaxAction {
		t.Errorf("greedy action %v outside grid", act)
	}
}

func TestEvaluateActorRange(t *testing.T) {
	env := testFactory(1)
	// A do-nothing actor still yields a reward in [0, 1].
	r := EvaluateActor(func([]float64) float64 { return 0 }, env, wThr, false, 100)
	if r < 0 || r > 1 {
		t.Errorf("reward %v outside [0,1]", r)
	}
}
