package pantheon

import (
	"fmt"

	"mocc/internal/core"
	"mocc/internal/gym"
	"mocc/internal/objective"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// Fig7Config parameterizes the quick-adaptation experiment (§6.2).
type Fig7Config struct {
	// OldObjective is the application the model already serves; the
	// NewObjective arrives online.
	OldObjective objective.Weights
	NewObjective objective.Weights
	// Iters is the adaptation horizon (both MOCC and Aurora).
	Iters int
	// SnapshotEvery controls the Figure 7(b) old-application probes.
	SnapshotEvery int
	// EvalSteps is the per-probe evaluation length.
	EvalSteps int
	Seed      int64
}

// DefaultFig7Config mirrors the paper: adapt from a throughput-centric old
// app to a latency-centric new one.
func DefaultFig7Config() Fig7Config {
	return Fig7Config{
		OldObjective:  objective.ThroughputPref,
		NewObjective:  objective.Weights{Thr: 0.2, Lat: 0.7, Loss: 0.1},
		Iters:         40,
		SnapshotEvery: 8,
		EvalSteps:     150,
		Seed:          5,
	}
}

// Fig7Result captures both panels.
type Fig7Result struct {
	// MOCCCurve / AuroraCurve are the new-objective reward learning curves
	// (Figure 7a).
	MOCCCurve   []float64
	AuroraCurve []float64
	// MOCCConverge / AuroraConverge are 99%-gain convergence iterations
	// (-1 = never).
	MOCCConverge   int
	AuroraConverge int
	// Speedup is AuroraConverge / MOCCConverge when both converge.
	Speedup float64
	// InitialGain is MOCC's first-iteration reward over Aurora's.
	InitialGain float64
	// OldAppMOCC / OldAppAurora are the old-objective rewards measured at
	// the snapshot points (Figure 7b).
	SnapshotIters []int
	OldAppMOCC    []float64
	OldAppAurora  []float64
}

// RunFig7 reproduces Figures 7(a) and 7(b): MOCC adapts its pre-trained
// multi-objective model with requirement replay, while Aurora re-trains its
// single-objective model from its old-app state and forgets the old
// application.
func RunFig7(z *Zoo, cfg Fig7Config) Fig7Result {
	envs := z.Envs()
	evalCond := trace.Condition{BandwidthMbps: 3, LatencyMs: 30, QueuePkts: 500, LossRate: 0.005}
	evalEnv := func(seed int64) *gym.Env {
		return gym.New(gym.FromCondition(evalCond, 1500, seed))
	}

	var res Fig7Result
	res.MOCCConverge, res.AuroraConverge = -1, -1

	// --- MOCC: transfer from the offline model with replay. ---
	moccModel := z.MOCC().Clone()
	acfg := core.DefaultAdaptConfig()
	acfg.Envs = envs
	acfg.MaxIters = cfg.Iters
	acfg.RolloutSteps = z.Params().rolloutSteps
	acfg.EpisodeLen = z.Params().episodeLen
	acfg.Seed = cfg.Seed
	adapter, err := core.NewAdapter(moccModel, acfg)
	if err != nil {
		panic("pantheon: fig7 adapter: " + err.Error())
	}
	adapter.Register(cfg.OldObjective)

	var moccOld []float64
	var snapIters []int
	moccRes := adapter.AdaptWithSnapshots(cfg.NewObjective, cfg.SnapshotEvery, func(iter int, snap *core.Model) {
		snapIters = append(snapIters, iter)
		moccOld = append(moccOld, rl.EvaluateActor(snap.PolicyFor(cfg.OldObjective).Act,
			evalEnv(cfg.Seed+int64(iter)), cfg.OldObjective, false, cfg.EvalSteps))
	})
	res.MOCCCurve = moccRes.Curve
	res.MOCCConverge = moccRes.ConvergedAt
	res.SnapshotIters = snapIters
	res.OldAppMOCC = moccOld

	// --- Aurora: continue training the old-app model on the new
	// objective (no preference input, no replay). ---
	auroraAgent := rl.NewPlainAgent(3*core.HistoryLen, cfg.Seed+1)
	// Start from the old application's trained weights: clone the zoo's
	// throughput Aurora.
	if err := auroraAgent.CopyFrom(z.AuroraThroughput()); err != nil {
		panic("pantheon: fig7 aurora clone: " + err.Error())
	}
	ppoCfg := z.Params().moccCfg.PPO
	ppoCfg.Seed = cfg.Seed + 2
	ppo := rl.NewPPO(auroraAgent, ppoCfg)
	ccfg := rl.CollectConfig{Steps: z.Params().rolloutSteps, EpisodeLen: z.Params().episodeLen}

	var auroraOld []float64
	for i := 0; i < cfg.Iters; i++ {
		ro := rl.Collect(auroraAgent, envs, cfg.NewObjective, ccfg, cfg.Seed+int64(i)*13)
		st := ppo.Update(ro)
		res.AuroraCurve = append(res.AuroraCurve, st.MeanReward)
		if cfg.SnapshotEvery > 0 && (i+1)%cfg.SnapshotEvery == 0 {
			auroraOld = append(auroraOld,
				rl.EvaluateActor(auroraAgent.Act, evalEnv(cfg.Seed+int64(i)), cfg.OldObjective, false, cfg.EvalSteps))
		}
	}
	res.OldAppAurora = auroraOld
	res.AuroraConverge = core.ConvergenceIndex(res.AuroraCurve, 0.99, 5)

	if res.MOCCConverge > 0 && res.AuroraConverge > 0 {
		res.Speedup = float64(res.AuroraConverge) / float64(res.MOCCConverge)
	}
	if len(res.MOCCCurve) > 0 && len(res.AuroraCurve) > 0 && res.AuroraCurve[0] > 0 {
		res.InitialGain = res.MOCCCurve[0] / res.AuroraCurve[0]
	}
	return res
}

// Table renders the Figure 7 headline numbers.
func (r Fig7Result) Table() Table {
	t := Table{
		Title:  "Figure 7 quick adaptation",
		Header: []string{"metric", "mocc", "aurora"},
	}
	t.Add("converge iteration", fmt.Sprint(r.MOCCConverge), fmt.Sprint(r.AuroraConverge))
	if r.Speedup > 0 {
		t.Add("speedup", fmt.Sprintf("%.1fx", r.Speedup), "1.0x")
	}
	if len(r.MOCCCurve) > 0 && len(r.AuroraCurve) > 0 {
		t.Add("initial reward", fmt.Sprintf("%.3f", r.MOCCCurve[0]), fmt.Sprintf("%.3f", r.AuroraCurve[0]))
		t.Add("final reward",
			fmt.Sprintf("%.3f", r.MOCCCurve[len(r.MOCCCurve)-1]),
			fmt.Sprintf("%.3f", r.AuroraCurve[len(r.AuroraCurve)-1]))
	}
	if len(r.OldAppMOCC) > 0 && len(r.OldAppAurora) > 0 {
		t.Add("old-app reward (end)",
			fmt.Sprintf("%.3f", r.OldAppMOCC[len(r.OldAppMOCC)-1]),
			fmt.Sprintf("%.3f", r.OldAppAurora[len(r.OldAppAurora)-1]))
	}
	return t
}
