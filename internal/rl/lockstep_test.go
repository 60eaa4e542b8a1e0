package rl_test

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"mocc/internal/core"
	"mocc/internal/gym"
	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// collectAlone is the per-sample loop lockstep collection replaced: one
// environment, and the one-row PolicyForward and ValueForward every step.
func collectAlone(agent rl.ActorCritic, factory rl.EnvFactory, cfg rl.CollectConfig, task rl.CollectTask) rl.Rollout {
	steps := cfg.Steps
	if task.Steps > 0 {
		steps = task.Steps
	}
	w := task.Weights
	rng := rand.New(rand.NewSource(task.Seed))
	env := factory(rng.Int63())
	var ro rl.Rollout
	var rewardSum float64
	epSteps := 0
	for len(ro.Trans) < steps {
		obs := env.Observation()
		if cfg.IncludeWeights {
			obs = append(obs, w.Thr, w.Lat, w.Loss)
		}
		mean, std := agent.PolicyForward(obs)
		action := nn.GaussianSample(rng, mean, std)
		logProb := nn.GaussianLogProb(action, mean, std)
		value := agent.ValueForward(obs)
		env.ApplyAction(math.Max(-cfg.MaxAction, math.Min(cfg.MaxAction, action)))
		reward := w.Reward(gym.RewardTerms(env.Step()))
		rewardSum += reward
		epSteps++
		done := cfg.EpisodeLen > 0 && epSteps >= cfg.EpisodeLen || env.Done()
		if done {
			epSteps = 0
			env = factory(rng.Int63())
		}
		ro.Trans = append(ro.Trans, rl.Transition{
			Obs: obs, Action: action, LogProb: logProb, Reward: reward, Value: value, Done: done,
		})
	}
	ro.MeanReward = rewardSum / float64(len(ro.Trans))
	return ro
}

// sameBits reports whether a and b hold the same float64 bit patterns.
func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// assertSameRollout fails unless got equals want byte for byte: every field
// of every transition, observations included, and the mean reward.
func assertSameRollout(t *testing.T, label string, got, want rl.Rollout) {
	t.Helper()
	if len(got.Trans) != len(want.Trans) {
		t.Fatalf("%s: %d transitions, want %d", label, len(got.Trans), len(want.Trans))
	}
	for j := range want.Trans {
		g, w := &got.Trans[j], &want.Trans[j]
		if len(g.Obs) != len(w.Obs) {
			t.Fatalf("%s step %d: obs length %d, want %d", label, j, len(g.Obs), len(w.Obs))
		}
		for k := range w.Obs {
			if !sameBits(g.Obs[k], w.Obs[k]) {
				t.Fatalf("%s step %d: obs[%d] %v, want %v", label, j, k, g.Obs[k], w.Obs[k])
			}
		}
		if !sameBits(g.Action, w.Action) || !sameBits(g.LogProb, w.LogProb) ||
			!sameBits(g.Reward, w.Reward) || !sameBits(g.Value, w.Value) || g.Done != w.Done ||
			!sameBits(g.Return, w.Return) || !sameBits(g.Advantage, w.Advantage) {
			t.Fatalf("%s step %d: got %+v, want %+v", label, j, *g, *w)
		}
	}
	if !sameBits(got.MeanReward, want.MeanReward) {
		t.Fatalf("%s: mean reward %v, want %v", label, got.MeanReward, want.MeanReward)
	}
}

// TestCollectTasksMatchesAlone: K tasks collected in lockstep through one
// batched forward per round give, task by task, the rollout the task gives
// collected alone through the one-row forward. Uneven Steps make K shrink
// mid-collection (through the column kernel's 4-row threshold), and the
// episodes end both on EpisodeLen and on the environment's own end.
func TestCollectTasksMatchesAlone(t *testing.T) {
	ranges := trace.TrainingRanges()
	factory := func(seed int64) *gym.Env {
		cfg := gym.FromCondition(ranges.Sample(rand.New(rand.NewSource(seed))), core.PacketBytes, seed)
		cfg.HistoryLen = 4
		cfg.MaxSteps = 7 + int(uint64(seed)%11) // some episodes end before EpisodeLen
		return gym.New(cfg)
	}
	weights := []objective.Weights{
		{Thr: 0.8, Lat: 0.1, Loss: 0.1},
		{Thr: 0.1, Lat: 0.8, Loss: 0.1},
		{Thr: 0.4, Lat: 0.3, Loss: 0.3},
	}
	var tasks []rl.CollectTask
	for i, steps := range []int{37, 0, 13, 64, 1, 29, 50} {
		tasks = append(tasks, rl.CollectTask{Weights: weights[i%len(weights)], Seed: int64(101 * (i + 1)), Steps: steps})
	}
	agents := []struct {
		name           string
		agent          rl.BatchActorCritic
		includeWeights bool
	}{
		{"PlainAgent", rl.NewPlainAgent(12, 3), false},
		{"Model", core.NewModel(4, 3), true},
	}
	for _, a := range agents {
		cfg := rl.CollectConfig{Steps: 24, EpisodeLen: 16, IncludeWeights: a.includeWeights, MaxAction: 2}
		var c rl.Collector
		// The last round reuses storage the K = 7 round sized.
		for _, k := range []int{1, 2, 4, 7, 2} {
			got := c.CollectTasks(a.agent, factory, cfg, tasks[:k])
			if len(got) != k {
				t.Fatalf("%s K=%d: %d rollouts", a.name, k, len(got))
			}
			for i := range got {
				want := collectAlone(a.agent, factory, cfg, tasks[i])
				assertSameRollout(t, fmt.Sprintf("%s K=%d task %d", a.name, k, i), got[i], want)
			}
		}
	}
}
