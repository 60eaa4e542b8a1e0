package rl

import (
	"math"
	"testing"
)

// trainAgent runs iters collect+update iterations with the given worker
// count and returns the trained agent.
func trainAgent(t *testing.T, workers, iters int) *PlainAgent {
	t.Helper()
	cfg := DefaultPPOConfig()
	cfg.Workers = workers
	agent := NewPlainAgent(12, 7)
	ppo := NewPPO(agent, cfg)
	for i := 0; i < iters; i++ {
		ro := Collect(agent, testFactory, wThr,
			CollectConfig{Steps: 128, EpisodeLen: 32}, int64(500+i))
		ppo.Update(ro)
	}
	return agent
}

// assertParamsBitIdentical fails unless the two agents' parameters match
// bit for bit.
func assertParamsBitIdentical(t *testing.T, a, b *PlainAgent, label string) {
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

// TestParallelUpdateW1BitIdenticalToSerial pins the W=1 guarantee: a PPO
// configured with one worker takes the same whole-minibatch path as the
// Workers=0 default, so the trained parameters are bit-identical.
func TestParallelUpdateW1BitIdenticalToSerial(t *testing.T) {
	serial := trainAgent(t, 0, 3)
	w1 := trainAgent(t, 1, 3)
	assertParamsBitIdentical(t, serial, w1, "W=1 vs serial")
}

// TestParallelUpdateDeterministic pins bit-determinism at a fixed worker
// count: two identically seeded W=4 runs must agree bit for bit, including
// a worker count that does not divide the minibatch evenly (W=3).
func TestParallelUpdateDeterministic(t *testing.T) {
	for _, w := range []int{2, 3, 4} {
		a := trainAgent(t, w, 3)
		b := trainAgent(t, w, 3)
		assertParamsBitIdentical(t, a, b, "repeat runs")
	}
}

// TestParallelUpdateMatchesSerialWithinTolerance: sharding only changes the
// association order of floating-point gradient sums, so W=4 training must
// track the serial engine to tight tolerance (it is NOT bit-identical —
// per-shard sums associate differently than one full-batch pass).
func TestParallelUpdateMatchesSerialWithinTolerance(t *testing.T) {
	serial := trainAgent(t, 0, 2)
	par := trainAgent(t, 4, 2)
	pa, pb := serial.AllParams(), par.AllParams()
	var worst float64
	for i := range pa {
		for j := range pa[i].Value {
			if d := math.Abs(pa[i].Value[j] - pb[i].Value[j]); d > worst {
				worst = d
			}
		}
	}
	if worst > 1e-6 {
		t.Fatalf("W=4 diverges from serial engine by %v after 2 updates", worst)
	}
	if worst == 0 {
		t.Log("W=4 happened to be bit-identical to serial (unusual but not wrong)")
	}
}

// TestParallelUpdateMoreWorkersThanRows exercises empty shards: with more
// workers than minibatch rows some shards are empty, and the tail minibatch
// is smaller than the worker count.
func TestParallelUpdateMoreWorkersThanRows(t *testing.T) {
	cfg := DefaultPPOConfig()
	cfg.Workers = 8
	cfg.MinibatchSize = 4
	agent := NewPlainAgent(12, 9)
	ppo := NewPPO(agent, cfg)
	ro := Collect(agent, testFactory, wThr, CollectConfig{Steps: 10, EpisodeLen: 5}, 3)
	st := ppo.Update(ro)
	if math.IsNaN(st.PolicyLoss) || math.IsNaN(st.ValueLoss) {
		t.Fatalf("non-finite losses: %+v", st)
	}
	for _, p := range agent.AllParams() {
		for _, v := range p.Value {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatal("non-finite parameter after empty-shard update")
			}
		}
	}
}

// TestPlainAgentTrainingReplica pins the replica contract at the agent
// level: shared values, private gradients.
func TestPlainAgentTrainingReplica(t *testing.T) {
	master := NewPlainAgent(12, 1)
	rep := master.TrainingReplica().(*PlainAgent)
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
}

// TestParallelUpdateStatsMatchSerial: the reduced statistics of a parallel
// update must agree with the serial engine's within floating-point
// reassociation tolerance.
func TestParallelUpdateStatsMatchSerial(t *testing.T) {
	run := func(workers int) UpdateStats {
		cfg := DefaultPPOConfig()
		cfg.Workers = workers
		agent := NewPlainAgent(12, 21)
		ppo := NewPPO(agent, cfg)
		ro := Collect(agent, testFactory, wThr, CollectConfig{Steps: 128, EpisodeLen: 32}, 77)
		return ppo.Update(ro)
	}
	s, p := run(0), run(4)
	if math.Abs(s.PolicyLoss-p.PolicyLoss) > 1e-9 ||
		math.Abs(s.ValueLoss-p.ValueLoss) > 1e-9 ||
		math.Abs(s.Entropy-p.Entropy) > 1e-9 ||
		s.ClipFraction != p.ClipFraction {
		t.Fatalf("stats diverge: serial %+v vs parallel %+v", s, p)
	}
}
