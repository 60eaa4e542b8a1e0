package core

import (
	"fmt"

	"mocc/internal/nn"
	"mocc/internal/objective"
)

// Inference is a goroutine-private deployment view of a Model for one
// decision at a time: a BatchInference run on a batch of one, so it shares
// the model's parameters (taking the read side of the model's parameter lock
// per evaluation), owns every scratch buffer, and returns exactly what
// ActBatch returns for the same pair. N applications on N cores evaluate one
// model concurrently without contending on anything except that uncontended
// read lock. The inline serving engine (serve.NewInline) gives each of its
// clients one.
//
// An Inference is not itself safe for concurrent use — create one per
// goroutine (they are a few KB each).
type Inference struct {
	batch *BatchInference
}

// NewInference builds a private inference view of the actor half-network.
func (m *Model) NewInference() *Inference {
	return &Inference{batch: m.NewBatchInference()}
}

// ActFor returns the deterministic action for a network-history observation
// under preference w, exactly like Model.ActFor but safe to call from many
// goroutines at once (each on its own Inference). The batch of one lives on
// the stack — ActBatch keeps none of its arguments — so a decision allocates
// nothing and the caller's observation is not retained.
func (inf *Inference) ActFor(w objective.Weights, netObs []float64) float64 {
	ws, obs := [1]objective.Weights{w}, [1][]float64{netObs}
	var out [1]float64
	inf.batch.ActBatch(ws[:], obs[:], out[:])
	return out[0]
}

// BatchInference is a goroutine-private batched deployment view of a Model:
// one call evaluates many (preference, observation) pairs, taking the read
// side of the parameter lock once per batch instead of once per decision.
// Every (row, output) of every layer is summed exactly as the n = 1 kernel
// sums it (nn.Evaluator: that kernel row by row below 4 rows, its sequence
// in column blocks from 4 up), so every output is bit-identical to
// Model.ActFor on the same pair whatever the batch size — a serving engine
// may coalesce concurrent requests freely.
//
// A BatchInference is not safe for concurrent use — create one per shard.
type BatchInference struct {
	model      *Model
	actorPref  *nn.Evaluator
	actorTrunk *nn.Evaluator
	wBuf       []float64 // [n x WeightDim] preference rows
	joint      []float64 // [n x (3η + PrefFeatures)] trunk input assembly
}

// NewBatchInference builds a private batched inference view of the actor
// half-network. Scratch grows to the largest batch evaluated and is reused,
// so steady-state batches allocate nothing.
func (m *Model) NewBatchInference() *BatchInference {
	return &BatchInference{
		model:      m,
		actorPref:  m.actorPref.NewEvaluator(),
		actorTrunk: m.actorTrunk.NewEvaluator(),
	}
}

// ActBatch evaluates len(ws) (preference, observation) pairs and writes the
// deterministic action for row r into out[r]. obs rows must each be one
// 3η network-history observation; ws, obs, and out must have equal length.
func (bi *BatchInference) ActBatch(ws []objective.Weights, obs [][]float64, out []float64) {
	n := len(ws)
	if len(obs) != n || len(out) != n {
		panic(fmt.Sprintf("core: ActBatch rows ws=%d obs=%d out=%d", n, len(obs), len(out)))
	}
	if n == 0 {
		return
	}
	bi.load(ws, obs)
	bi.model.RLockParams()
	acts := bi.forward(n)
	bi.model.RUnlockParams()
	copy(out, acts[:n])
}

// load assembles the preference rows and the network half of the trunk
// input rows of len(ws) pairs; obs must be as long as ws.
func (bi *BatchInference) load(ws []objective.Weights, obs [][]float64) {
	n := len(ws)
	netDim := 3 * bi.model.HistoryLen
	jointDim := netDim + PrefFeatures
	bi.wBuf = nn.Grow(bi.wBuf, n*WeightDim)
	bi.joint = nn.Grow(bi.joint, n*jointDim)
	for r, w := range ws {
		if len(obs[r]) != netDim {
			panic(fmt.Sprintf("core: network observation length %d, want %d", len(obs[r]), netDim))
		}
		bi.wBuf[r*WeightDim+0] = w.Thr
		bi.wBuf[r*WeightDim+1] = w.Lat
		bi.wBuf[r*WeightDim+2] = w.Loss
		copy(bi.joint[r*jointDim:r*jointDim+netDim], obs[r])
	}
}

// forward runs the actor over the n loaded rows and returns the n actions,
// aliasing the trunk evaluator's scratch. The caller holds whatever
// parameter lock its sharing needs.
func (bi *BatchInference) forward(n int) []float64 {
	netDim := 3 * bi.model.HistoryLen
	jointDim := netDim + PrefFeatures
	feat := bi.actorPref.ForwardBatch(bi.wBuf[:n*WeightDim], n)
	for r := 0; r < n; r++ {
		nn.FastTanh(bi.joint[r*jointDim+netDim:(r+1)*jointDim], feat[r*PrefFeatures:(r+1)*PrefFeatures])
	}
	return bi.actorTrunk.ForwardBatch(bi.joint[:n*jointDim], n)
}
