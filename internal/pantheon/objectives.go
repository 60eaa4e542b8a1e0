package pantheon

import (
	"fmt"
	"math/rand"
	"sort"

	"mocc/internal/cc"
	"mocc/internal/core"
	"mocc/internal/gym"
	"mocc/internal/objective"
	"mocc/internal/rl"
	"mocc/internal/stats"
	"mocc/internal/trace"
)

// Fig6Config parameterizes the 100-objective experiment (§6.1).
type Fig6Config struct {
	// Objectives is the number of uniformly sampled weight vectors (100 in
	// the paper).
	Objectives int
	// Conditions is the number of network conditions (10 in the paper).
	Conditions int
	// Steps is the evaluation length per scenario in monitor intervals.
	Steps int
	Seed  int64
	// Workers bounds the scenario scheduler's fan-out over the
	// objective x condition grid (0 = GOMAXPROCS, 1 = serial); results are
	// byte-identical at any worker count.
	Workers int
}

// Fig6Result maps each scheme to its reward samples over all scenarios; the
// CDFs of these samples are the Figure 6 curves.
type Fig6Result struct {
	Rewards map[string][]float64
}

// rewardOfRun converts a run summary into the Equation 2 reward under w.
func rewardOfRun(sum RunSummary, w objective.Weights) float64 {
	oThr := stats.Clamp(sum.Utilization, 0, 1)
	oLat := stats.Clamp(1/sum.LatencyRatio, 0, 1)
	oLoss := stats.Clamp(1-sum.LossRate, 0, 1)
	return w.Reward(oThr, oLat, oLoss)
}

// RunFig6 evaluates MOCC (offline model only, no adaptation), enhanced
// Aurora (nearest pre-trained model per objective), vanilla Aurora, and all
// baselines over Objectives x Conditions scenarios.
func RunFig6(s *Schemes, cfg Fig6Config) Fig6Result {
	if cfg.Objectives <= 0 {
		cfg.Objectives = 100
	}
	if cfg.Conditions <= 0 {
		cfg.Conditions = 10
	}
	if cfg.Steps <= 0 {
		cfg.Steps = 200
	}
	objs := objective.UniformObjectives(cfg.Objectives, cfg.Seed)
	rng := rand.New(rand.NewSource(cfg.Seed + 1))
	ranges := trace.TestingRanges()
	conds := make([]trace.Condition, cfg.Conditions)
	for i := range conds {
		conds[i] = ranges.Sample(rng)
	}

	// Train every learned model serially before fanning out (lazy zoo
	// training must happen in a deterministic order).
	s.zoo.AuroraThroughput()
	s.zoo.MOCC()
	s.zoo.EnhancedAurora()

	run := Runner{Workers: cfg.Workers}
	baseFactories := s.Baselines()
	baseNames := make([]string, len(baseFactories))
	for i, f := range baseFactories {
		baseNames[i] = f().Name()
	}

	// Phase 1: schemes whose behaviour is objective-independent run once
	// per condition and are scored under every objective afterwards.
	nCondSchemes := len(baseFactories) + 1 // + vanilla Aurora
	condSums := make([][]RunSummary, len(conds))
	for ci := range condSums {
		condSums[ci] = make([]RunSummary, nCondSchemes)
	}
	run.Each(len(conds)*nCondSchemes, func(job int) {
		ci, bi := job/nCondSchemes, job%nCondSchemes
		seed := cfg.Seed + int64(ci)*101
		if bi < len(baseFactories) {
			condSums[ci][bi] = RunScheme(baseFactories[bi](), conds[ci], cfg.Steps, seed)
		} else {
			condSums[ci][bi] = RunScheme(s.AuroraThroughputAlgorithm(), conds[ci], cfg.Steps, seed)
		}
	})

	// Phase 2: the objective-conditioned schemes cover the full
	// objective x condition grid.
	moccSums := make([]RunSummary, len(conds)*len(objs))
	enhSums := make([]RunSummary, len(conds)*len(objs))
	run.Each(len(conds)*len(objs), func(job int) {
		ci, oi := job/len(objs), job%len(objs)
		w := objs[oi]
		seed := cfg.Seed + int64(ci)*101 + int64(oi)

		// MOCC conditions on the objective using the offline model alone —
		// §6.1 disables online adaptation for this figure.
		moccSums[job] = RunScheme(s.MOCCOfflineAlgorithm("mocc", w), conds[ci], cfg.Steps, seed)

		// Enhanced Aurora picks the nearest pre-trained model; the worker
		// drives a private clone of it.
		agent := s.zoo.NearestEnhanced(w).Clone()
		enh := cc.NewRLRate("enhanced-aurora", cc.PolicyFunc(agent.Act), core.HistoryLen)
		enhSums[job] = RunScheme(enh, conds[ci], cfg.Steps, seed)
	})

	res := Fig6Result{Rewards: map[string][]float64{}}
	record := func(name string, r float64) {
		res.Rewards[name] = append(res.Rewards[name], r)
	}
	for ci := range conds {
		for oi, w := range objs {
			for bi, name := range baseNames {
				record(name, rewardOfRun(condSums[ci][bi], w))
			}
			record("aurora", rewardOfRun(condSums[ci][nCondSchemes-1], w))
			record("mocc", rewardOfRun(moccSums[ci*len(objs)+oi], w))
			record("enhanced-aurora", rewardOfRun(enhSums[ci*len(objs)+oi], w))
		}
	}
	return res
}

// MeanReward returns the mean reward for a scheme.
func (r Fig6Result) MeanReward(scheme string) float64 {
	return stats.Mean(r.Rewards[scheme])
}

// Table renders Figure 6 as reward quantiles per scheme.
func (r Fig6Result) Table() Table {
	t := Table{
		Title:  "Figure 6 reward distribution over objectives x conditions",
		Header: []string{"scheme", "p10", "p50", "mean", "p90"},
	}
	names := make([]string, 0, len(r.Rewards))
	for name := range r.Rewards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		xs := r.Rewards[name]
		p10, _ := stats.Percentile(xs, 10)
		p50, _ := stats.Percentile(xs, 50)
		p90, _ := stats.Percentile(xs, 90)
		t.Add(name,
			fmt.Sprintf("%.3f", p10),
			fmt.Sprintf("%.3f", p50),
			fmt.Sprintf("%.3f", stats.Mean(xs)),
			fmt.Sprintf("%.3f", p90))
	}
	return t
}

// Fig16Config parameterizes the ω hyperparameter sweep (§6.5).
type Fig16Config struct {
	// Omegas lists the landmark counts to compare (paper: 3, 6, 10/12, 36,
	// 171 — we use the exact lattice sizes).
	Omegas []int
	// EvalObjectives/EvalSteps control the reward CDF evaluation.
	EvalObjectives int
	EvalSteps      int
	// TrainIterBudget is the shared two-phase schedule scale per ω.
	Seed int64
	// Workers bounds the scenario scheduler's fan-out over the evaluation
	// passes (training stays serial); 0 = GOMAXPROCS, 1 = serial.
	Workers int
}

// Fig16Result maps ω to reward samples and training iteration counts.
type Fig16Result struct {
	Rewards    map[int][]float64
	TrainIters map[int]int
}

// RunFig16 pre-trains MOCC with different ω and evaluates each model's
// reward CDF over unseen objectives, reproducing the quality/time tradeoff.
func RunFig16(cfg Fig16Config) Fig16Result {
	if len(cfg.Omegas) == 0 {
		cfg.Omegas = []int{3, 6, 10}
	}
	if cfg.EvalObjectives <= 0 {
		cfg.EvalObjectives = 20
	}
	if cfg.EvalSteps <= 0 {
		cfg.EvalSteps = 150
	}
	envs := core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen)
	evalObjs := objective.UniformObjectives(cfg.EvalObjectives, cfg.Seed+9)
	evalCond := trace.Condition{BandwidthMbps: 3, LatencyMs: 30, QueuePkts: 500, LossRate: 0.005}

	res := Fig16Result{Rewards: map[int][]float64{}, TrainIters: map[int]int{}}
	for _, omega := range cfg.Omegas {
		model := core.NewModel(core.HistoryLen, cfg.Seed)
		p := params(Quick, cfg.Seed)
		tc := p.moccCfg
		tc.Omega = omega
		tc.Envs = envs
		trainer, err := core.NewOfflineTrainer(model, tc)
		if err != nil {
			panic("pantheon: fig16 config: " + err.Error())
		}
		tr, err := trainer.Run()
		if err != nil {
			panic("pantheon: fig16 training: " + err.Error())
		}
		res.TrainIters[omega] = tr.TotalIters()

		// Evaluation passes are independent: fan them out, each worker
		// driving a frozen copy of the trained model.
		rewards := make([]float64, len(evalObjs))
		Runner{Workers: cfg.Workers}.Each(len(evalObjs), func(oi int) {
			env := gym.New(gym.FromCondition(evalCond, 1500, cfg.Seed+int64(oi)))
			w := evalObjs[oi]
			rewards[oi] = rl.EvaluateActor(model.Clone().PolicyFor(w).Act, env, w, false, cfg.EvalSteps)
		})
		res.Rewards[omega] = rewards
	}
	return res
}

// Table renders Figure 16.
func (r Fig16Result) Table() Table {
	t := Table{
		Title:  "Figure 16 omega sweep: model quality vs training cost",
		Header: []string{"omega", "mean reward", "p10", "p90", "train iters"},
	}
	omegas := make([]int, 0, len(r.Rewards))
	for o := range r.Rewards {
		omegas = append(omegas, o)
	}
	sort.Ints(omegas)
	for _, o := range omegas {
		xs := r.Rewards[o]
		p10, _ := stats.Percentile(xs, 10)
		p90, _ := stats.Percentile(xs, 90)
		t.Add(fmt.Sprint(o),
			fmt.Sprintf("%.3f", stats.Mean(xs)),
			fmt.Sprintf("%.3f", p10),
			fmt.Sprintf("%.3f", p90),
			fmt.Sprint(r.TrainIters[o]))
	}
	return t
}

// Fig18Config parameterizes the PPO vs DQN ablation (§6.5).
type Fig18Config struct {
	EvalObjectives int
	EvalConditions int
	EvalSteps      int
	Seed           int64
}

// Fig18Result holds reward samples for MOCC-PPO and MOCC-DQN.
type Fig18Result struct {
	PPORewards []float64
	DQNRewards []float64
}

// RunFig18 evaluates the PPO-trained MOCC model against the DQN-trained
// variant across objectives and conditions: the discrete action space of
// DQN yields visibly coarser rate control and lower reward.
func RunFig18(z *Zoo, cfg Fig18Config) Fig18Result {
	if cfg.EvalObjectives <= 0 {
		cfg.EvalObjectives = 10
	}
	if cfg.EvalConditions <= 0 {
		cfg.EvalConditions = 3
	}
	if cfg.EvalSteps <= 0 {
		cfg.EvalSteps = 150
	}
	ppoModel := z.MOCC()
	dqnModel := z.MOCCDQN()

	objs := objective.UniformObjectives(cfg.EvalObjectives, cfg.Seed+3)
	rng := rand.New(rand.NewSource(cfg.Seed + 4))
	ranges := trace.TrainingRanges()

	var res Fig18Result
	for ci := 0; ci < cfg.EvalConditions; ci++ {
		cond := ranges.Sample(rng)
		for oi, w := range objs {
			seed := cfg.Seed + int64(ci)*1000 + int64(oi)
			envP := gym.New(gym.FromCondition(cond, 1500, seed))
			res.PPORewards = append(res.PPORewards,
				rl.EvaluateActor(ppoModel.PolicyFor(w).Act, envP, w, false, cfg.EvalSteps))

			envD := gym.New(gym.FromCondition(cond, 1500, seed))
			res.DQNRewards = append(res.DQNRewards,
				rl.EvaluateActor(dqnModel.Act, envD, w, true, cfg.EvalSteps))
		}
	}
	return res
}

// Table renders Figure 18.
func (r Fig18Result) Table() Table {
	t := Table{
		Title:  "Figure 18 MOCC-PPO vs MOCC-DQN",
		Header: []string{"variant", "mean reward", "p10", "p50", "p90"},
	}
	row := func(name string, xs []float64) {
		p10, _ := stats.Percentile(xs, 10)
		p50, _ := stats.Percentile(xs, 50)
		p90, _ := stats.Percentile(xs, 90)
		t.Add(name,
			fmt.Sprintf("%.3f", stats.Mean(xs)),
			fmt.Sprintf("%.3f", p10),
			fmt.Sprintf("%.3f", p50),
			fmt.Sprintf("%.3f", p90))
	}
	row("mocc-ppo", r.PPORewards)
	row("mocc-dqn", r.DQNRewards)
	return t
}
