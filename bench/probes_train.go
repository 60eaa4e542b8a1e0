package main

import (
	"math"
	"path/filepath"
	"time"

	"mocc/internal/core"
	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// traceTrain is the traced pass of train-adapt: an untraced and a traced
// stretch of the OnlineAdapt loop, then the layers inside an iteration
// replayed on their own — Adapter.Step on a bench-owned adapter, and
// Collect + Collect + UpdateMulti on a third copy of the model — round
// robin with OnlineAdapt itself so a machine burst hits parent and
// children alike. The micro probes (gym step, batched forward/backward,
// Adam, gradient accumulation, one offline iteration) follow.
func traceTrain(e *env, r *adaptRig) error {
	e.startTrace()
	req := int32(0)
	tracedIterate := func() (int, float64, error) {
		t0 := time.Now()
		k, n, err := r.iterate()
		e.tr.add(spOnlineAdapt, t0, time.Now(), req)
		req++
		return k, n, err
	}
	if err := e.traceOverhead(e.budget(0.5), serialChunk(1, r.iterate, tracedIterate)); err != nil {
		return err
	}

	path := filepath.Join(e.dir, "model.json")
	stepModel, err := loadCoreModel(path)
	if err != nil {
		return err
	}
	partsModel, err := loadCoreModel(path)
	if err != nil {
		return err
	}
	acfg := core.DefaultAdaptConfig()
	acfg.Seed = e.cfg.seed
	acfg.Envs = core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen)
	adapter, err := core.NewAdapter(stepModel, acfg)
	if err != nil {
		return err
	}
	pr := newRNG(e.cfg.seed, 0xada9)
	pool := make([]objective.Weights, replayObjectives)
	for i := range pool {
		pool[i] = toObjective(pr.pref())
		adapter.Register(pool[i])
	}
	w := toObjective(r.w)
	ppo := rl.NewPPO(partsModel, acfg.PPO)
	collect := rl.CollectConfig{Steps: acfg.RolloutSteps, EpisodeLen: acfg.EpisodeLen, IncludeWeights: true, MaxAction: 2}
	seed := e.cfg.seed

	var rollout rl.Rollout
	start := time.Now()
	for i := 0; i < 3 || time.Since(start) < e.budget(0.3); i++ {
		if _, _, err := tracedIterate(); err != nil {
			return err
		}
		id := req - 1
		t0 := time.Now()
		e.sink = adapter.Step(w)
		t1 := time.Now()
		e.tr.add(spAdapterStep, t0, t1, id)

		seed += 2
		rollout = rl.Collect(partsModel, acfg.Envs, w, collect, seed)
		replay := rl.Collect(partsModel, acfg.Envs, pool[i%len(pool)], collect, seed+1)
		t2 := time.Now()
		ppo.UpdateMulti([]rl.Rollout{rollout, replay})
		t3 := time.Now()
		e.tr.add(spCollect, t1, t2, id)
		e.tr.add(spUpdate, t2, t3, id)
	}
	if err := partsModel.CheckFinite(); err != nil {
		e.wrong("model after replayed PPO updates: %v", err)
	}

	st := e.tr.stats()
	collectMs, updateMs := st[spCollect].medianUs/1e3, st[spUpdate].medianUs/1e3
	e.set("core.adapt_iter_ms", st[spOnlineAdapt].medianUs/1e3)
	e.set("core.adapt_publish_us", st[spOnlineAdapt].selfUs)
	e.set("rl.collect_ms", collectMs)
	e.set("rl.update_ms", updateMs)
	e.set("rl.collect_share", 100*collectMs/(collectMs+updateMs))

	c0 := readCounters()
	rollout = rl.Collect(partsModel, acfg.Envs, w, collect, seed+2)
	c1 := readCounters()
	e.set("rl.allocs_per_step", float64(c1.mallocs-c0.mallocs)/float64(len(rollout.Trans)))

	for len(r.rewards) < rewardWindow {
		if _, _, err := r.iterate(); err != nil {
			return err
		}
	}
	var sum float64
	for _, v := range r.rewards[rewardWindow-10 : rewardWindow] {
		sum += v
	}
	// A digest, not a score: the absolute value keeps it a non-negative
	// metric whatever the objective's reward scale.
	e.set("core.adapt_reward_last10", math.Abs(sum/10))

	micro := e.budget(0.01)
	env := acfg.Envs(e.cfg.seed)
	flip := 1.0
	e.set("gym.step_ns", perOpNs(micro, 256, func() {
		flip = -flip
		env.ApplyAction(flip)
		env.Step()
		if env.Done() {
			env.Reset()
		}
	}))

	const batch = 64
	obsDim := partsModel.ObsSize()
	obs := make([]float64, 0, batch*obsDim)
	for _, tr := range rollout.Trans[:batch] {
		obs = append(obs, tr.Obs...)
	}
	dMean := make([]float64, batch)
	dLogStd := make([]float64, batch)
	for i := range dMean {
		dMean[i], dLogStd[i] = 0.01, 0.001
	}
	actor := partsModel.ActorParams()
	e.set("nn.forward_batch64_ns_per_sample", perOpNs(micro, 8, func() {
		means, _ := partsModel.PolicyForwardBatch(obs, batch)
		e.sink = means[0]
	})/batch)
	e.set("nn.forward_backward_batch64_ns_per_sample", perOpNs(micro, 8, func() {
		nn.ZeroGrad(actor)
		partsModel.PolicyForwardBatch(obs, batch)
		partsModel.PolicyBackwardBatch(dMean, dLogStd)
	})/batch)

	all := append(partsModel.ActorParams(), partsModel.CriticParams()...)
	adam := nn.NewAdam(all, core.LearningRate)
	e.set("nn.adam_step_us", perOpNs(micro, 8, adam.Step)/1e3)
	replica := partsModel.TrainingReplica()
	src := append(replica.ActorParams(), replica.CriticParams()...)
	nn.ZeroGrad(all)
	var accErr error
	e.set("nn.accumulate_us", perOpNs(micro, 8, func() {
		if err := nn.AccumulateInto(all, src); err != nil {
			accErr = err
		}
	})/1e3)
	if accErr != nil {
		return accErr
	}
	return probeOffline(e, path)
}

// probeOffline times one OfflineTrainer iteration at Workers=1 and at
// QuickTraining's 4, interleaved. Not gated: evidence for whether parallel
// collection and update pay on this hardware.
func probeOffline(e *env, modelPath string) error {
	var trainers [2]*core.OfflineTrainer
	for i, workers := range []int{1, 4} {
		m, err := loadCoreModel(modelPath)
		if err != nil {
			return err
		}
		ppo := rl.DefaultPPOConfig()
		ppo.Seed = e.cfg.seed
		trainers[i], err = core.NewOfflineTrainer(m, core.TrainConfig{
			Omega: 3, RolloutSteps: 256, EpisodeLen: 64, Workers: workers, Seed: e.cfg.seed,
			PPO:  ppo,
			Envs: core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen),
		})
		if err != nil {
			return err
		}
	}
	var durs [2][]float64
	start := time.Now()
	for len(durs[0]) < 3 || time.Since(start) < e.budget(0.03) {
		for i, t := range trainers {
			t0 := time.Now()
			if _, err := t.Iterate(objective.BalancePref); err != nil {
				return err
			}
			durs[i] = append(durs[i], float64(time.Since(t0))/1e6)
		}
	}
	e.set("core.offline_iter_ms_w1", median(durs[0]))
	e.set("core.offline_iter_ms_default", median(durs[1]))
	return nil
}
