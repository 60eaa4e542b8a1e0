package rl

import (
	"sync"
	"sync/atomic"

	"mocc/internal/nn"
	"mocc/internal/objective"
)

// Paramed is any model whose full parameter set can be copied, the minimal
// capability parallel collection needs to fan a master model out to worker
// replicas.
type Paramed interface {
	AllParams() []*nn.Param
}

// CollectTask describes one rollout request for parallel collection.
type CollectTask struct {
	Weights objective.Weights
	Seed    int64
	// Steps, when > 0, overrides CollectConfig.Steps for this task so a
	// rollout budget can be distributed exactly across an uneven fan-out.
	Steps int
}

// ParallelCollector gathers rollouts concurrently using per-worker replica
// agents, the goroutine equivalent of the paper's Ray/RLlib parallel
// environments (§5). Forward passes mutate layer scratch arenas, so workers
// never share a model; instead the master's parameters are copied into each
// replica at the start of a collection round. Each worker's Collect writes
// its observations into a single per-rollout backing array, so a collection
// round performs O(tasks) allocations rather than O(steps).
type ParallelCollector struct {
	replicas []ActorCritic
}

// NewParallelCollector builds a collector with workers replicas created by
// factory (each must have the master's architecture).
func NewParallelCollector(workers int, factory func() ActorCritic) *ParallelCollector {
	if workers < 1 {
		workers = 1
	}
	pc := &ParallelCollector{replicas: make([]ActorCritic, workers)}
	for i := range pc.replicas {
		pc.replicas[i] = factory()
	}
	return pc
}

// Workers returns the replica count.
func (pc *ParallelCollector) Workers() int { return len(pc.replicas) }

// Collect copies the master's current parameters into every replica and
// then collects one rollout per task. min(Workers, len(tasks)) goroutines
// pull task indices from a shared counter, so a fan-out smaller than the
// worker count runs on exactly that many goroutines instead of churning idle
// ones. Results are slotted by task index and every replica carries
// identical parameters, so the output is deterministic for a fixed seed set
// regardless of which replica runs which task or in what order they finish.
func (pc *ParallelCollector) Collect(master Paramed, envs EnvFactory, cfg CollectConfig, tasks []CollectTask) ([]Rollout, error) {
	masterParams := master.AllParams()
	for _, rep := range pc.replicas {
		repParamed, ok := rep.(Paramed)
		if !ok {
			continue
		}
		if err := nn.CopyParams(repParamed.AllParams(), masterParams); err != nil {
			return nil, err
		}
	}

	out := make([]Rollout, len(tasks))
	runTask := func(rep ActorCritic, i int) {
		c := cfg
		if tasks[i].Steps > 0 {
			c.Steps = tasks[i].Steps
		}
		out[i] = Collect(rep, envs, tasks[i].Weights, c, tasks[i].Seed)
	}

	workers := min(len(pc.replicas), len(tasks))
	if workers <= 1 {
		for i := range tasks {
			runTask(pc.replicas[0], i)
		}
		return out, nil
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(rep ActorCritic) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(tasks) {
					return
				}
				runTask(rep, i)
			}
		}(pc.replicas[w])
	}
	wg.Wait()
	return out, nil
}
