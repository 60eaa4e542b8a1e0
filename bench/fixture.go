package main

import (
	"fmt"
	"time"

	"mocc"
	"mocc/internal/core"
	"mocc/internal/nn"
)

// fixture is the tiny model every workload runs on. It is trained once per
// process rather than committed as JSON, so the benchmark survives
// model-format changes; its cost is reported as bench.fixture_train_s and
// is never part of setup_s.
type fixture struct {
	model  *mocc.Model
	trainS float64
}

// trainFixture runs the schedule of bench_serve_test.go's servingModel at
// Workers=1: deterministic, ~0.15 s.
func trainFixture() (*fixture, error) {
	opts := mocc.QuickTraining()
	opts.Omega = 3
	opts.BootstrapIters = 4
	opts.BootstrapCycles = 1
	opts.TraverseCycles = 0
	opts.Workers = 1
	start := time.Now()
	m, err := mocc.TrainModel(opts)
	if err != nil {
		return nil, fmt.Errorf("training fixture model: %w", err)
	}
	return &fixture{model: m, trainS: time.Since(start).Seconds()}, nil
}

// loadCoreModel reads a saved model file into an internal core.Model, for
// the layers below the public API (inference views, the adapter, scenario
// scheme resolution).
func loadCoreModel(path string) (*core.Model, error) {
	snap, err := nn.LoadFile(path)
	if err != nil {
		return nil, err
	}
	if err := snap.Validate(); err != nil {
		return nil, err
	}
	m := core.NewModel(core.HistoryLen, 0)
	if err := m.Restore(snap); err != nil {
		return nil, err
	}
	return m, nil
}
