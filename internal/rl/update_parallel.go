package rl

// This file implements the data-parallel PPO minibatch engine: each
// minibatch's rows are sharded across W workers, every worker runs the
// batched forward/backward on a value-sharing replica of the master agent
// (private gradients and scratch, zero parameter copies — replicas read the
// master's weights in place), and the per-worker gradients are reduced into
// the master in a FIXED worker order before the optimizer step. Fixed
// sharding + fixed reduction order keep training bit-deterministic for a
// fixed seed and worker count; the optimizer mutates the shared values only
// between rounds, strictly ordered against replica reads by the kick/join
// channels.

import (
	"fmt"
	"sync"

	"mocc/internal/nn"
)

// ReplicaAgent is a BatchActorCritic that can spawn training replicas:
// agents sharing its parameter values (so replicas always observe the
// master's current weights without copying) while owning private gradient
// buffers and forward/backward scratch, so several replicas may run batched
// forward/backward concurrently. PlainAgent and core.Model implement it.
type ReplicaAgent interface {
	BatchActorCritic
	// TrainingReplica returns a new value-sharing replica of the agent.
	TrainingReplica() BatchActorCritic
}

// updateJob is one kick of the worker pool; quit retires the goroutine.
type updateJob struct{ quit bool }

// updateWorker is one lane of the data-parallel update: a replica-backed
// minibatch engine plus its cached parameter slices.
type updateWorker struct {
	pool     *updatePool
	id       int
	eng      mbEngine
	actorPs  []*nn.Param
	criticPs []*nn.Param
	active   bool // ran a non-empty shard in the current round
}

// loop is the per-update worker goroutine body: process rounds until quit.
func (w *updateWorker) loop() {
	for job := range w.pool.jobs[w.id] {
		if job.quit {
			return
		}
		w.round()
		w.pool.wg.Done()
	}
}

// round runs this worker's shard of the current minibatch.
func (w *updateWorker) round() {
	pool := w.pool
	lo, hi := shardBounds(len(pool.batch), len(pool.workers), w.id)
	w.active = lo < hi
	if !w.active {
		return
	}
	nn.ZeroGrad(w.actorPs)
	nn.ZeroGrad(w.criticPs)
	w.eng.run(&pool.p.Cfg, pool.all, pool.batch[lo:hi], float64(len(pool.batch)), pool.beta)
}

// shardBounds splits n rows into workers contiguous, balanced shards; the
// partition is a pure function of (n, workers), so row-to-worker assignment
// never depends on scheduling.
func shardBounds(n, workers, w int) (lo, hi int) {
	return w * n / workers, (w + 1) * n / workers
}

// updatePool owns the worker lanes and the per-round shared state. Worker
// goroutines live for one UpdateMulti call (begin spawns, end retires), so
// discarded PPO instances never leak parked goroutines; the job channels and
// all scratch persist across updates, keeping the steady state allocation
// free.
type updatePool struct {
	p       *PPO
	workers []*updateWorker
	jobs    []chan updateJob
	wg      sync.WaitGroup

	// Per-round inputs, written by the update goroutine before the kicks
	// and read-only in the workers until the join.
	all   []Transition
	batch []int
	beta  float64
}

// ensurePool lazily builds the data-parallel engine. It returns nil — and
// UpdateMulti keeps whole minibatches, which the W=1 equivalence tests pin
// as bit-identical to Workers = 0 — when Workers <= 1 or the agent cannot
// spawn replicas.
func (p *PPO) ensurePool() *updatePool {
	if p.Cfg.Workers <= 1 {
		return nil
	}
	if p.pool != nil {
		return p.pool
	}
	ra, ok := p.Agent.(ReplicaAgent)
	if !ok {
		return nil
	}
	pool := &updatePool{
		p:       p,
		workers: make([]*updateWorker, p.Cfg.Workers),
		jobs:    make([]chan updateJob, p.Cfg.Workers),
	}
	for i := range pool.workers {
		rep := ra.TrainingReplica()
		w := &updateWorker{
			pool:     pool,
			id:       i,
			eng:      mbEngine{agent: rep},
			actorPs:  rep.ActorParams(),
			criticPs: rep.CriticParams(),
		}
		if len(w.actorPs) != len(p.actorPs) || len(w.criticPs) != len(p.criticPs) {
			panic(fmt.Sprintf("rl: replica parameter shape mismatch (%d/%d vs %d/%d)",
				len(w.actorPs), len(w.criticPs), len(p.actorPs), len(p.criticPs)))
		}
		pool.workers[i] = w
		pool.jobs[i] = make(chan updateJob, 1)
	}
	p.pool = pool
	return pool
}

// begin publishes the update's transition set and spawns the worker
// goroutines for this UpdateMulti call.
func (pool *updatePool) begin(all []Transition) {
	pool.all = all
	for _, w := range pool.workers {
		go w.loop()
	}
}

// end retires the worker goroutines.
func (pool *updatePool) end() {
	for _, ch := range pool.jobs {
		ch <- updateJob{quit: true}
	}
}

// runMinibatch fans one minibatch across the pool and joins: every worker
// zeroes its replica gradients, runs its shard, and parks; the caller then
// reduces via merge.
func (pool *updatePool) runMinibatch(batch []int, beta float64) {
	pool.batch, pool.beta = batch, beta
	pool.wg.Add(len(pool.workers))
	for _, ch := range pool.jobs {
		ch <- updateJob{}
	}
	pool.wg.Wait()
}

// merge reduces the round's per-worker gradients into the master parameters
// and folds the partial statistics into the update accumulators, visiting
// workers in ascending id order so the floating-point reduction is identical
// on every run with the same worker count.
func (pool *updatePool) merge(sums *lossSums) {
	for _, w := range pool.workers {
		if !w.active {
			continue
		}
		sums.add(&w.eng.part)
		if err := nn.AccumulateInto(pool.p.actorPs, w.actorPs); err != nil {
			panic("rl: actor gradient reduction: " + err.Error())
		}
		if err := nn.AccumulateInto(pool.p.criticPs, w.criticPs); err != nil {
			panic("rl: critic gradient reduction: " + err.Error())
		}
	}
}
