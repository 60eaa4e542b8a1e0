package core

import (
	"fmt"
	"testing"

	"mocc/internal/objective"
	"mocc/internal/rl"
)

// benchTrainConfig is a QuickTraining-shaped schedule shrunk to benchmark
// scale: enough iterations that the update engine reaches steady state,
// small enough to run under -benchtime defaults.
func benchTrainConfig(workers int) TrainConfig {
	ppo := rl.DefaultPPOConfig()
	ppo.EntropyInit = 0.03
	ppo.EntropyFinal = 0.002
	ppo.EntropyDecayIters = 20
	return TrainConfig{
		Omega:           3,
		BootstrapIters:  2,
		BootstrapCycles: 1,
		TraverseIters:   1,
		TraverseCycles:  1,
		RolloutSteps:    256,
		EpisodeLen:      64,
		Workers:         workers,
		Seed:            1,
		PPO:             ppo,
		Envs:            batchTestFactory,
	}
}

// BenchmarkOfflineTrain measures whole training-loop wall-clock (collection
// + PPO update) at Workers = 1 and 4. Collection is one goroutine either
// way: w4 splits each round into four tasks stepped in lockstep through
// batched forwards, and shards each PPO minibatch over four goroutines.
// steps/s is the environment-step throughput (the figure training sweeps
// are gated on).
func BenchmarkOfflineTrain(b *testing.B) {
	cases := []struct {
		name    string
		workers int
	}{
		{"serial", 1},
		{"w4", 4},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			var iters int
			for i := 0; i < b.N; i++ {
				cfg := benchTrainConfig(c.workers)
				m := NewModel(4, 1)
				tr, err := NewOfflineTrainer(m, cfg)
				if err != nil {
					b.Fatal(err)
				}
				res, err := tr.Run()
				if err != nil {
					b.Fatal(err)
				}
				iters = res.TotalIters()
			}
			steps := float64(iters) * float64(benchTrainConfig(1).RolloutSteps)
			b.ReportMetric(steps*float64(b.N)/b.Elapsed().Seconds(), "steps/s")
			b.ReportMetric(float64(iters)*float64(b.N)/b.Elapsed().Seconds(), "iters/s")
		})
	}
}

// BenchmarkInferenceActFor measures one single-sample actor decision
// (ActBatch on a batch of one: preference head + trunk under one read-lock
// round trip) — the per-call cost the serving engine's coalescing replaces.
func BenchmarkInferenceActFor(b *testing.B) {
	m := NewModel(HistoryLen, 1)
	inf := m.NewInference()
	obs := make([]float64, 3*HistoryLen)
	for i := range obs {
		obs[i] = float64(i%7) * 0.1
	}
	w := batchW
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inf.ActFor(w, obs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
}

// BenchmarkBatchInferenceActBatch measures the same decision through the
// batched path at serving batch size: the same n = 1 kernel per row, but
// one lock round trip and one pass over the layers per batch instead of per
// decision. The gap to BenchmarkInferenceActFor is the per-report headroom
// the serving engine has to pay its coalescing overhead out of.
func BenchmarkBatchInferenceActBatch(b *testing.B) {
	const batch = 64
	m := NewModel(HistoryLen, 1)
	bi := m.NewBatchInference()
	ws := make([]objective.Weights, batch)
	obs := make([][]float64, batch)
	out := make([]float64, batch)
	for r := range obs {
		ws[r] = batchW
		row := make([]float64, 3*HistoryLen)
		for i := range row {
			row[i] = float64((i+r)%7) * 0.1
		}
		obs[r] = row
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bi.ActBatch(ws, obs, out)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// BenchmarkModelPPOUpdateParallel measures one PPO update of the MOCC model
// (preference sub-networks) at several worker counts over a fixed rollout,
// isolating the data-parallel update engine from collection.
func BenchmarkModelPPOUpdateParallel(b *testing.B) {
	for _, w := range []int{1, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := rl.DefaultPPOConfig()
			cfg.Workers = w
			m := NewModel(4, 1)
			ppo := rl.NewPPO(m, cfg)
			ro := rl.Collect(m, batchTestFactory, batchW,
				rl.CollectConfig{Steps: 512, EpisodeLen: 64, IncludeWeights: true}, 42)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ppo.Update(ro)
			}
		})
	}
}

// BenchmarkAdapterStep measures one online-adaptation iteration with
// requirement replay on the pinned digest set-up (adapt_digest_test.go): two
// 512-step rollouts, then one PPO update over both. B/op is the adapt path's
// steady-state allocation per iteration.
func BenchmarkAdapterStep(b *testing.B) {
	a := digestAdapter(b)
	a.Step(digestW) // sizes every reused buffer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Step(digestW)
	}
}
