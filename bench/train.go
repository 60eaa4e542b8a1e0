package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"

	"mocc"
)

// replayObjectives is how many previously registered objectives sit in the
// replay pool while train-adapt adapts to a new one.
const replayObjectives = 4

// rewardWindow: core.adapt_reward_last10 is the mean reward of the rig's
// iterations 11–20, a fixed window so the digest does not depend on how
// many iterations the machine fitted into the run.
const rewardWindow = 20

// adaptRig is one library set up for online adaptation.
type adaptRig struct {
	lib     *mocc.Library
	w       mocc.Weights
	steps   float64   // environment steps one iteration collects and trains on
	rewards []float64 // reward of every iteration so far, in order
}

// setupAdapt is what a user pays before the first steady-state adaptation
// iteration: write and load the model file, construct the library with its
// adapter, register the replayed objectives, and run the first iteration.
func setupAdapt(e *env) (*adaptRig, error) {
	path := filepath.Join(e.dir, "model.json")
	if err := e.fix.model.Save(path); err != nil {
		return nil, err
	}
	model, err := mocc.LoadModelFile(path)
	if err != nil {
		return nil, err
	}
	opts := mocc.DefaultAdaptation()
	opts.Seed = e.cfg.seed
	lib, err := mocc.New(model, mocc.WithAdaptation(opts))
	if err != nil {
		return nil, err
	}
	pr := newRNG(e.cfg.seed, 0xada9)
	for i := 0; i < replayObjectives; i++ {
		if _, err := lib.Register(pr.pref()); err != nil {
			return nil, err
		}
	}
	r := &adaptRig{
		lib: lib,
		w:   pr.pref(),
		// One rollout for the new objective plus one replayed.
		steps:   float64(2 * opts.RolloutSteps),
		rewards: make([]float64, 0, 4096),
	}
	if _, _, err := r.iterate(); err != nil {
		return nil, err
	}
	return r, nil
}

// iterate is the workload's op batch: one OnlineAdapt iteration (collect →
// PPO update → finite check → snapshot under the write lock). OnlineAdapt
// itself refuses to publish a non-finite model; the reward is checked here.
// Every iteration does the same work, so the workload has one input, 0.
func (r *adaptRig) iterate() (input int, ops float64, err error) {
	curve, err := r.lib.OnlineAdapt(r.w, 1)
	if err != nil {
		return 0, 0, err
	}
	if len(curve) != 1 || math.IsNaN(curve[0]) || math.IsInf(curve[0], 0) {
		return 0, 0, fmt.Errorf("OnlineAdapt returned reward curve %v", curve)
	}
	r.rewards = append(r.rewards, curve[0])
	return 0, r.steps, nil
}

func runTrainAdapt(e *env) error {
	var firstRewards []float64
	su := &setups[*adaptRig]{
		setup: func() (*adaptRig, error) {
			r, err := setupAdapt(e)
			if err == nil {
				firstRewards = append(firstRewards, r.rewards[0])
			}
			return r, err
		},
		teardown: func(*adaptRig) {},
	}
	r, err := su.first()
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ { // warm-up
		if _, _, err := r.iterate(); err != nil {
			return err
		}
	}
	runtime.GC()

	if !e.cfg.trace {
		err = timedPhase(e, su, serialChunk(1, r.iterate, nil))
	} else {
		err = traceTrain(e, r)
	}
	if err != nil {
		return err
	}
	// Every set-up starts from the same file and seed, so the first
	// iteration's reward must repeat bit for bit.
	for _, v := range firstRewards {
		if v != firstRewards[0] {
			e.wrong("first-iteration rewards differ between identical set-ups: %v", firstRewards)
			break
		}
	}
	e.attempted = int64(len(r.rewards))
	return nil
}
