package main

import (
	_ "embed"
	"fmt"
	"path/filepath"
	"runtime"

	"mocc/internal/cc"
	"mocc/internal/core"
	"mocc/internal/objective"
	"mocc/scenario"
)

// The committed specs are embedded so the program finds them whatever its
// working directory is.
var (
	//go:embed specs/sim-onelink.json
	specOnelink []byte
	//go:embed specs/sim-topo.json
	specTopo []byte
)

func runSimOnelink(e *env) error { return runSim(e, specOnelink) }
func runSimTopo(e *env) error    { return runSim(e, specTopo) }

// simSeeds is how many scenario seeds one run seed expands into: the
// inputs of a sim workload, which the runs cycle through, so a single
// seed's packet count does not decide the latency. Twenty keep the packet
// count per pass (what alloc_bytes_per_op divides by) within half a percent
// across run seeds, and a full-length run repeats each 50 times or more.
const simSeeds = 20

// simRig is one parsed spec ready to run under each derived seed.
type simRig struct {
	json  []byte
	spec  *scenario.Spec
	opt   scenario.RunOptions
	model *core.Model
	seeds []int64
	pkts  []float64 // ops of each seed's first run; every repeat must match
	next  int
	runs  int64
	wrong []string // failed output checks
}

// setupSim is what a user pays before the first steady-state run: write
// and load the model file the spec's mocc flow resolves from, parse the
// spec, then compile and run it once.
func setupSim(e *env, specJSON []byte) (*simRig, error) {
	path := filepath.Join(e.dir, "model.json")
	if err := e.fix.model.Save(path); err != nil {
		return nil, err
	}
	model, err := loadCoreModel(path)
	if err != nil {
		return nil, err
	}
	spec, err := scenario.Parse(specJSON)
	if err != nil {
		return nil, err
	}
	r := &simRig{
		json:  specJSON,
		spec:  spec,
		model: model,
		seeds: derivedSeeds(e.cfg.seed, simSeeds),
		pkts:  make([]float64, simSeeds),
	}
	// Workers is pinned to 1: on two shared vCPUs the sharded topo engine
	// is slower and twice as noisy (README, Findings); the sharded figure
	// is kept per-layer as topo.sharded_pkts_per_s. One-link specs ignore
	// the setting.
	r.opt = scenario.RunOptions{
		CompileOptions: scenario.CompileOptions{Resolver: r.resolve},
		Workers:        1,
	}
	if _, _, err := r.runNext(); err != nil {
		return nil, err
	}
	return r, nil
}

// resolve materializes the spec's mocc flows from the fixture model; every
// other scheme falls through to the scenario built-ins.
func (r *simRig) resolve(f scenario.Flow) (cc.Algorithm, error) {
	if f.Scheme != "mocc" {
		return nil, nil
	}
	return r.model.AlgorithmFor("mocc", flowWeights(f)), nil
}

func flowWeights(f scenario.Flow) objective.Weights {
	if f.Weights == nil {
		return objective.BalancePref
	}
	return objective.Weights{Thr: f.Weights.Throughput, Lat: f.Weights.Latency, Loss: f.Weights.Loss}.Normalize()
}

// resultOps counts a run's ops: packets sent plus packets delivered, over
// application and cross flows.
func resultOps(res *scenario.Result) float64 {
	var n int
	for _, f := range res.Flows {
		n += f.Sent + f.Delivered
	}
	for _, f := range res.Cross {
		n += f.Sent + f.Delivered
	}
	return float64(n)
}

// runNext is the workload's op batch: one scenario.Run under the next
// derived seed, with the physical invariants Run checks itself, and the
// packet count compared against the first run of that seed.
func (r *simRig) runNext() (input int, ops float64, err error) {
	k := r.next
	r.next = (r.next + 1) % len(r.seeds)
	r.spec.Seed = r.seeds[k]
	res, err := scenario.Run(r.spec, r.opt)
	if err != nil {
		return k, 0, err
	}
	r.runs++
	ops = resultOps(res)
	switch {
	case ops == 0:
		return k, 0, fmt.Errorf("seed %d: the run moved no packets", r.seeds[k])
	case r.pkts[k] == 0:
		r.pkts[k] = ops
	case r.pkts[k] != ops:
		r.wrong = append(r.wrong, fmt.Sprintf("seed %d: %v packets, the first run of the same spec and seed had %v", r.seeds[k], ops, r.pkts[k]))
	}
	return k, ops, nil
}

func runSim(e *env, specJSON []byte) error {
	su := &setups[*simRig]{
		setup:    func() (*simRig, error) { return setupSim(e, specJSON) },
		teardown: func(*simRig) {},
	}
	r, err := su.first()
	if err != nil {
		return err
	}
	// Warm-up: finish the first pass, which also fills r.pkts.
	for r.next != 0 {
		if _, _, err := r.runNext(); err != nil {
			return err
		}
	}
	runtime.GC()

	if !e.cfg.trace {
		err = timedPhase(e, su, serialChunk(simSeeds, r.runNext, nil))
	} else {
		err = traceSim(e, r)
	}
	if err != nil {
		return err
	}
	e.attempted = r.runs
	e.failed = int64(len(r.wrong))
	for _, msg := range r.wrong {
		e.wrong("%s", msg)
	}
	return nil
}
