package core

import (
	"testing"

	"mocc/internal/rl"
)

// parallelTrainConfig is a small two-phase schedule exercising both phases.
func parallelTrainConfig(workers int) TrainConfig {
	ppo := rl.DefaultPPOConfig()
	ppo.EntropyInit = 0.03
	ppo.EntropyFinal = 0.002
	ppo.EntropyDecayIters = 20
	return TrainConfig{
		Omega:           3,
		BootstrapIters:  1,
		BootstrapCycles: 1,
		TraverseIters:   1,
		TraverseCycles:  1,
		RolloutSteps:    96,
		EpisodeLen:      32,
		Workers:         workers,
		Seed:            11,
		PPO:             ppo,
		Envs:            batchTestFactory,
	}
}

// runTrainer trains a fresh model under cfg and returns it with the result.
func runTrainer(t *testing.T, cfg TrainConfig) (*Model, *OfflineResult) {
	t.Helper()
	m := NewModel(4, 5)
	tr, err := NewOfflineTrainer(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := tr.Run()
	if err != nil {
		t.Fatal(err)
	}
	return m, res
}

// assertModelsBitIdentical fails unless both models' parameters match bit
// for bit.
func assertModelsBitIdentical(t *testing.T, a, b *Model, label string) {
	t.Helper()
	pa, pb := a.AllParams(), b.AllParams()
	for i := range pa {
		for j := range pa[i].Value {
			if pa[i].Value[j] != pb[i].Value[j] {
				t.Fatalf("%s: %s[%d] differs: %v vs %v",
					label, pa[i].Name, j, pa[i].Value[j], pb[i].Value[j])
			}
		}
	}
}

// TestParallelTrainingDeterministic: W=4 training on the MOCC model
// (preference sub-networks: four lockstep collection tasks, the
// data-parallel update engine) is bitwise reproducible, and the task split
// spends the rollout budget exactly.
func TestParallelTrainingDeterministic(t *testing.T) {
	cfg := parallelTrainConfig(4)
	a, resA := runTrainer(t, cfg)
	b, resB := runTrainer(t, cfg)
	assertModelsBitIdentical(t, a, b, "repeat W=4 runs")
	if resA.TotalIters() != resB.TotalIters() {
		t.Fatalf("iteration counts differ: %d vs %d", resA.TotalIters(), resB.TotalIters())
	}
	if want := resA.TotalIters() * cfg.RolloutSteps; resA.EnvSteps != want {
		t.Errorf("EnvSteps = %d, want %d (tasks must split the budget exactly)",
			resA.EnvSteps, want)
	}
}

// TestProgressMilestonesEmptyCycles: cycle-completion lines must still be
// emitted (once each, in order) when a cycle contributes zero iterations.
func TestProgressMilestonesEmptyCycles(t *testing.T) {
	cfg := parallelTrainConfig(1)
	cfg.BootstrapIters = 0
	cfg.BootstrapCycles = 2
	cfg.TraverseCycles = 1
	var lines []string
	cfg.Progress = func(s string) { lines = append(lines, s) }
	tr, err := NewOfflineTrainer(NewModel(4, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"bootstrap: 2 cycles x 3 objectives x 0 iters",
		"bootstrap cycle 1/2 done",
		"bootstrap cycle 2/2 done",
		"fast traverse: 1 cycles x 3 objectives x 1 iters",
		"traverse cycle 1/1 done",
	}
	if len(lines) != len(want) {
		t.Fatalf("progress lines = %q, want %q", lines, want)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("progress[%d] = %q, want %q", i, lines[i], want[i])
		}
	}
}

// TestModelTrainingReplica pins the replica contract on the MOCC model:
// every parameter (preference sub-networks, trunks, logStd) shares values
// with the master while gradients stay private.
func TestModelTrainingReplica(t *testing.T) {
	master := NewModel(4, 2)
	rep := master.TrainingReplica().(*Model)
	mp, rp := master.AllParams(), rep.AllParams()
	if len(mp) != len(rp) {
		t.Fatalf("param count %d vs %d", len(mp), len(rp))
	}
	for i := range mp {
		if &mp[i].Value[0] != &rp[i].Value[0] {
			t.Fatalf("param %s: replica does not share values", mp[i].Name)
		}
		if &mp[i].Grad[0] == &rp[i].Grad[0] {
			t.Fatalf("param %s: replica shares gradients", mp[i].Name)
		}
	}

	// Batched forward through the replica matches the master bitwise.
	obsDim := master.ObsSize()
	const n = 3
	obs := make([]float64, n*obsDim)
	for i := range obs {
		obs[i] = float64(i%7)*0.1 - 0.3
	}
	wantM, wantStd := master.PolicyForwardBatch(obs, n)
	wantCopy := append([]float64(nil), wantM...)
	gotM, gotStd := rep.PolicyForwardBatch(obs, n)
	if wantStd != gotStd {
		t.Fatalf("std %v vs %v", wantStd, gotStd)
	}
	for i := range wantCopy {
		if wantCopy[i] != gotM[i] {
			t.Fatalf("mean[%d]: master %v vs replica %v", i, wantCopy[i], gotM[i])
		}
	}
}

// TestMakeTasksFanout pins the Workers task split: the task count is
// bounded by full episodes in the budget, steps split the budget exactly,
// and every task draws its own seed.
func TestMakeTasksFanout(t *testing.T) {
	cases := []struct {
		rollout, episode, workers int
		wantTasks                 []int // per-task steps
	}{
		{256, 64, 4, []int{64, 64, 64, 64}}, // even split
		{256, 64, 3, []int{86, 85, 85}},     // remainder to early tasks
		{64, 64, 4, []int{64}},              // one episode: one task
		{100, 64, 4, []int{100}},            // budget < 2 episodes: one task
		{128, 64, 4, []int{64, 64}},         // two episodes: two tasks
		{32, 64, 4, []int{32}},              // budget below one episode
	}
	for _, c := range cases {
		cfg := parallelTrainConfig(c.workers)
		cfg.RolloutSteps = c.rollout
		cfg.EpisodeLen = c.episode
		tr, err := NewOfflineTrainer(NewModel(4, 1), cfg)
		if err != nil {
			t.Fatal(err)
		}
		tasks := tr.makeTasks(batchW)
		if len(tasks) != len(c.wantTasks) {
			t.Fatalf("rollout=%d episode=%d workers=%d: %d tasks, want %d",
				c.rollout, c.episode, c.workers, len(tasks), len(c.wantTasks))
		}
		total := 0
		seeds := map[int64]bool{}
		for i, task := range tasks {
			if task.Steps != c.wantTasks[i] {
				t.Errorf("rollout=%d workers=%d task %d: steps %d, want %d",
					c.rollout, c.workers, i, task.Steps, c.wantTasks[i])
			}
			total += task.Steps
			seeds[task.Seed] = true
		}
		if total != c.rollout {
			t.Errorf("rollout=%d workers=%d: total steps %d != budget", c.rollout, c.workers, total)
		}
		if len(seeds) != len(tasks) {
			t.Errorf("rollout=%d workers=%d: duplicate task seeds", c.rollout, c.workers)
		}
	}
}
