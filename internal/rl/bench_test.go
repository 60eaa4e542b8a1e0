package rl

import (
	"fmt"
	"testing"
)

// benchRollout collects a fixed 512-step rollout once so PPO benchmarks
// measure update cost only. ComputeReturns is idempotent, so the same
// rollout can be re-updated every iteration.
func benchRollout(agent BatchActorCritic) Rollout {
	return Collect(agent, testFactory, wThr,
		CollectConfig{Steps: 512, EpisodeLen: 64}, 42)
}

func BenchmarkPPOUpdate(b *testing.B) {
	agent := NewPlainAgent(12, 1)
	ppo := NewPPO(agent, DefaultPPOConfig())
	ro := benchRollout(agent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppo.Update(ro)
	}
}

// BenchmarkPPOUpdateSerial measures the per-sample fallback path (the
// pre-batching implementation) for the speedup comparison recorded in
// CHANGES.md.
func BenchmarkPPOUpdateSerial(b *testing.B) {
	agent := NewPlainAgent(12, 1)
	ppo := NewPPO(serialOnly{agent}, DefaultPPOConfig())
	ro := benchRollout(agent)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ppo.Update(ro)
	}
}

// BenchmarkPPOUpdateParallel measures the data-parallel update engine at
// several worker counts on the same rollout as BenchmarkPPOUpdate. W=1
// takes the same whole-minibatch path as BenchmarkPPOUpdate (the
// bit-identity guarantee), so it must be flat against it; the ≥1.8x target
// at w4 needs a ≥4-core machine (on a 1-core container the barrier rounds
// serialize).
func BenchmarkPPOUpdateParallel(b *testing.B) {
	for _, w := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			cfg := DefaultPPOConfig()
			cfg.Workers = w
			agent := NewPlainAgent(12, 1)
			ppo := NewPPO(agent, cfg)
			ro := benchRollout(agent)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ppo.Update(ro)
			}
		})
	}
}

// BenchmarkCollect measures lockstep collection of K 256-step rollouts into
// a kept Collector: one policy and one value forward over the K tasks per
// round. ns/step is per environment step, so k2 and k4 against k1 show what
// sharing a forward across tasks saves.
func BenchmarkCollect(b *testing.B) {
	for _, k := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			agent := NewPlainAgent(12, 1)
			cfg := CollectConfig{Steps: 256, EpisodeLen: 64}
			tasks := make([]CollectTask, k)
			var c Collector
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range tasks {
					tasks[j] = CollectTask{Weights: wThr, Seed: int64(i*k + j)}
				}
				c.CollectTasks(agent, testFactory, cfg, tasks)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*k*cfg.Steps), "ns/step")
		})
	}
}
