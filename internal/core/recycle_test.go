package core

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"mocc/internal/gym"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// raceEnabled is set by race_test.go in a race-detector build.
var raceEnabled bool

// fromConditionEnv is TrainingEnvs' factory as it was written before it
// kept its random stream and schedules for reuse: one rand.NewSource and
// gym.FromCondition per call. It is the oracle the factory must match.
func fromConditionEnv(ranges trace.NetRanges, historyLen int, seed int64) *gym.Env {
	rng := rand.New(rand.NewSource(seed))
	cond := ranges.Sample(rng)
	bdp := trace.MbpsToPktsPerSec(cond.BandwidthMbps, PacketBytes) * 2 * cond.LatencyMs / 1000
	if maxQ := int(6 * bdp); cond.QueuePkts > maxQ && maxQ >= 2 {
		cond.QueuePkts = maxQ
	}
	cfg := gym.FromCondition(cond, PacketBytes, rng.Int63())
	cfg.HistoryLen = historyLen
	if rng.Float64() < 0.4 {
		frac := 0.2 + 0.4*rng.Float64()
		crossRate := frac * cfg.Bandwidth.At(0)
		if rng.Float64() < 0.5 {
			cfg.CrossTraffic = trace.Constant(crossRate)
		} else {
			cfg.CrossTraffic = trace.Step{Low: 0, High: crossRate, Period: 1 + 3*rng.Float64()}
		}
	}
	return gym.New(cfg)
}

// envBits steps env under a fixed action sequence and returns the bits of
// its metrics, its observations and its schedules over the episode.
func envBits(env *gym.Env, steps int) []uint64 {
	var out []uint64
	put := func(vs ...float64) {
		for _, v := range vs {
			out = append(out, math.Float64bits(v))
		}
	}
	cfg := env.Config()
	put(cfg.LatencyMs, float64(cfg.QueuePkts), cfg.LossRate, float64(cfg.HistoryLen), env.Rate())
	for i := 0; i < steps; i++ {
		if cfg.CrossTraffic != nil {
			put(cfg.CrossTraffic.At(env.Time()))
		}
		env.ApplyAction(2 * math.Sin(0.7*float64(i)))
		m := env.Step()
		put(m.Capacity, m.Throughput, m.AvgRTT, m.LossRate, m.Queue)
		put(env.Observation()...)
	}
	return out
}

func TestTrainingEnvsMatchesFromCondition(t *testing.T) {
	ranges := trace.TrainingRanges()
	factory := TrainingEnvs(ranges, 4)
	cross := 0
	for seed := int64(-20); seed < 180; seed++ {
		want := fromConditionEnv(ranges, 4, seed)
		if want.Config().CrossTraffic != nil {
			cross++
		}
		env := factory(seed)
		if got := envBits(env, 40); !slices.Equal(got, envBits(want, 40)) {
			t.Fatalf("seed %d: the factory's environment steps unlike gym.FromCondition's", seed)
		}
		env.Release() // the next call renews it
	}
	if cross == 0 {
		t.Fatal("no seed drew cross traffic")
	}
}

// rolloutBits returns the bits of every transition of every rollout.
func rolloutBits(ros []rl.Rollout) []uint64 {
	var out []uint64
	for _, ro := range ros {
		out = append(out, math.Float64bits(ro.MeanReward))
		for _, tr := range ro.Trans {
			for _, v := range append(tr.Obs, tr.Action, tr.LogProb, tr.Reward, tr.Value) {
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

// TestTrainingEnvsConcurrentCollect collects from one TrainingEnvs factory
// on two goroutines at once, each with its own model and collector, so the
// factory's pooled random streams and gym's pooled environments cross
// goroutines (run it under the race detector); every round must be what
// the same goroutine's work gives alone.
func TestTrainingEnvsConcurrentCollect(t *testing.T) {
	cfg := rl.CollectConfig{Steps: 64, EpisodeLen: 16, IncludeWeights: true, MaxAction: 2}
	const rounds = 4
	run := func(factory rl.EnvFactory, g int) [][]uint64 {
		model := NewModel(4, int64(g+1))
		var c rl.Collector
		var out [][]uint64
		for r := 0; r < rounds; r++ {
			tasks := []rl.CollectTask{
				{Weights: wThr, Seed: int64(100*g + 2*r)},
				{Weights: wLat, Seed: int64(100*g + 2*r + 1), Steps: 40},
			}
			out = append(out, rolloutBits(c.CollectTasks(model, factory, cfg, tasks)))
		}
		return out
	}
	want := [2][][]uint64{
		run(TrainingEnvs(trace.TrainingRanges(), 4), 0),
		run(TrainingEnvs(trace.TrainingRanges(), 4), 1),
	}
	shared := TrainingEnvs(trace.TrainingRanges(), 4)
	var got [2][][]uint64
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = run(shared, g)
		}()
	}
	wg.Wait()
	for g := range got {
		for r := range got[g] {
			if !slices.Equal(got[g][r], want[g][r]) {
				t.Fatalf("goroutine %d round %d: concurrent collection differs from collecting alone", g, r)
			}
		}
	}
}

// TestAdapterStepAllocFree pins the steady state of online adaptation
// with TrainingEnvs and requirement replay: environments, their random
// streams and the factory's own come back from their pools, and every
// buffer was sized by the warm-up steps.
func TestAdapterStepAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items on purpose")
	}
	a := digestAdapter(t)
	if a.Pool().Len() < 2 || !a.Cfg.Replay {
		t.Fatal("the digest set-up no longer replays")
	}
	for i := 0; i < 2; i++ {
		a.Step(digestW)
	}
	if allocs := testing.AllocsPerRun(3, func() { a.Step(digestW) }); allocs != 0 {
		t.Fatalf("Adapter.Step allocates %v times per step after warm-up, want 0", allocs)
	}
}
