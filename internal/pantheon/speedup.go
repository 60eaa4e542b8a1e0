package pantheon

import (
	"fmt"
	"time"

	"mocc/internal/core"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// Fig19Result reports the training-speedup comparison (§6.5): individual
// per-objective training vs two-phase transfer learning vs transfer plus
// parallel environments (Workers rollout tasks per iteration, collected in
// lockstep) and the data-parallel update. Wall-clock times are measured on
// this machine at the configured scale; the paper's absolute hours differ
// but the ordering and rough factors are the reproduction target.
type Fig19Result struct {
	IndividualTime time.Duration
	TransferTime   time.Duration
	ParallelTime   time.Duration
	// Iteration counts document the work each strategy performed.
	IndividualIters int
	TransferIters   int
	ParallelIters   int
	// SpeedupTransfer = Individual/Transfer; SpeedupParallel =
	// Individual/Parallel.
	SpeedupTransfer float64
	SpeedupParallel float64
}

// Fig19Config scales the experiment.
type Fig19Config struct {
	Omega int
	// ItersPerObjective is the individual-training budget per objective;
	// the two-phase schedule uses proportionally fewer (that is the whole
	// point of transfer).
	ItersPerObjective int
	RolloutSteps      int
	EpisodeLen        int
	Workers           int
	Seed              int64
}

// DefaultFig19Config is a scaled-down but structurally faithful setup.
func DefaultFig19Config() Fig19Config {
	return Fig19Config{
		Omega:             6,
		ItersPerObjective: 6,
		RolloutSteps:      256,
		EpisodeLen:        64,
		Workers:           4,
		Seed:              1,
	}
}

// RunFig19 measures the three training strategies.
func RunFig19(cfg Fig19Config) (Fig19Result, error) {
	envs := core.TrainingEnvs(trace.TrainingRanges(), core.HistoryLen)
	base := core.TrainConfig{
		Omega:           cfg.Omega,
		BootstrapIters:  cfg.ItersPerObjective,
		BootstrapCycles: 1,
		TraverseIters:   1,
		TraverseCycles:  1,
		RolloutSteps:    cfg.RolloutSteps,
		EpisodeLen:      cfg.EpisodeLen,
		Workers:         1,
		Seed:            cfg.Seed,
		PPO:             quickPPO(cfg.Seed),
		Envs:            envs,
	}

	var res Fig19Result

	// 1. Individual training: every objective from scratch, full budget.
	start := time.Now()
	iters, err := core.TrainIndividually(base, core.HistoryLen, cfg.ItersPerObjective)
	if err != nil {
		return res, err
	}
	res.IndividualTime = time.Since(start)
	res.IndividualIters = iters

	// 2. Two-phase transfer: bootstraps at full budget, then a cheap
	// traversal of the remaining objectives.
	start = time.Now()
	model := core.NewModel(core.HistoryLen, cfg.Seed)
	trainer, err := core.NewOfflineTrainer(model, base)
	if err != nil {
		return res, err
	}
	tr, err := trainer.Run()
	if err != nil {
		return res, err
	}
	res.TransferTime = time.Since(start)
	res.TransferIters = tr.TotalIters()

	// 3. Transfer + parallel environments and update. Worker count
	// resolves like the scenario scheduler's: <= 0 selects GOMAXPROCS.
	parCfg := base
	parCfg.Workers = workerCount(cfg.Workers)
	start = time.Now()
	model2 := core.NewModel(core.HistoryLen, cfg.Seed)
	trainer2, err := core.NewOfflineTrainer(model2, parCfg)
	if err != nil {
		return res, err
	}
	tr2, err := trainer2.Run()
	if err != nil {
		return res, err
	}
	res.ParallelTime = time.Since(start)
	res.ParallelIters = tr2.TotalIters()

	if res.TransferTime > 0 {
		res.SpeedupTransfer = float64(res.IndividualTime) / float64(res.TransferTime)
	}
	if res.ParallelTime > 0 {
		res.SpeedupParallel = float64(res.IndividualTime) / float64(res.ParallelTime)
	}
	return res, nil
}

// quickPPO returns a low-entropy PPO config for speed comparisons.
func quickPPO(seed int64) rl.PPOConfig {
	cfg := rl.DefaultPPOConfig()
	cfg.EntropyInit = 0.02
	cfg.EntropyFinal = 0.002
	cfg.EntropyDecayIters = 30
	cfg.Seed = seed
	return cfg
}

// Table renders Figure 19.
func (r Fig19Result) Table() Table {
	t := Table{
		Title:  "Figure 19 training speedup",
		Header: []string{"method", "time", "iters", "speedup"},
	}
	t.Add("individual", r.IndividualTime.Round(time.Millisecond).String(),
		fmt.Sprint(r.IndividualIters), "1.0x")
	t.Add("transfer", r.TransferTime.Round(time.Millisecond).String(),
		fmt.Sprint(r.TransferIters), fmt.Sprintf("%.1fx", r.SpeedupTransfer))
	t.Add("transfer+parallel", r.ParallelTime.Round(time.Millisecond).String(),
		fmt.Sprint(r.ParallelIters), fmt.Sprintf("%.1fx", r.SpeedupParallel))
	return t
}
