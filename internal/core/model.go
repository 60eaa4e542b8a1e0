// Package core implements the paper's contribution: the MOCC
// multi-objective congestion-control model (§4). The policy and value
// networks are extended with a preference sub-network that embeds the
// application weight vector; the reward is dynamically parameterized by the
// same vector (Equation 2); offline training runs the two-phase
// bootstrapping + fast-traversing schedule (§4.2, Appendix B); and online
// adaptation transfers the offline model to unseen objectives with
// requirement replay (§4.3, Equation 6).
package core

import (
	"fmt"
	"math"
	"math/rand"
	"sync"

	"mocc/internal/cc"
	"mocc/internal/gym"
	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/rl"
)

// Architecture constants from §5 and Figure 3.
const (
	// Hidden1 and Hidden2 are the trunk hidden sizes (64, 32).
	Hidden1 = 64
	Hidden2 = 32
	// PrefFeatures is the width of the preference sub-network's feature
	// transformation of the 3-dim weight vector.
	PrefFeatures = 16
	// WeightDim is the application requirement dimensionality.
	WeightDim = 3
)

// logStd clamp bounds shared with the single-objective agent.
const (
	minLogStd = -3.0
	maxLogStd = 1.0
)

// Model is the MOCC actor-critic with preference sub-networks (Figure 3).
// Observations are the concatenation [network history (3·η) | weight vector
// (3)]; each half-network first transforms the weight vector through its
// preference sub-network and concatenates the features with the network
// history before the trunk.
//
// Model implements rl.ActorCritic.
type Model struct {
	HistoryLen int

	actorPref  *nn.MLP // 3 -> PrefFeatures (tanh output)
	actorTrunk *nn.MLP // 3η+PrefFeatures -> 64 -> 32 -> 1
	actorAct   *nn.Tanh

	criticPref  *nn.MLP
	criticTrunk *nn.MLP
	criticAct   *nn.Tanh

	logStd *nn.Param

	// Scratch arenas for the batched forward/backward paths. The actor and
	// critic may share the assembly buffers because every Linear layer
	// copies its input into its own cache before the next batched call.
	wBuf     []float64 // [n x WeightDim] extracted weight vectors
	jointBuf []float64 // [n x (netDim+PrefFeatures)] trunk inputs
	featGrad []float64 // [n x PrefFeatures] gradients into the pref net
	d1       [1]float64

	// act is ActFor's forward-only view of the actor, built at the first
	// call, so a Clone or a TrainingReplica never shares its scratch.
	act *BatchInference

	// paramMu arbitrates shared deployment against parameter writes:
	// Inference (the read-shared entry point behind per-app handles) takes
	// the read side per evaluation, and any training/adaptation that
	// mutates parameters while inferences may be running must hold the
	// write side (see LockParams). The model's own forward/backward paths
	// do not touch it — single-goroutine training pays nothing.
	paramMu sync.RWMutex
}

// LockParams acquires exclusive access to the parameter values, blocking
// all Inference evaluations; pair with UnlockParams around any optimizer
// step that runs while applications are live (online adaptation).
func (m *Model) LockParams() { m.paramMu.Lock() }

// UnlockParams releases LockParams.
func (m *Model) UnlockParams() { m.paramMu.Unlock() }

// RLockParams acquires shared read access to the parameter values; used by
// Inference and by snapshotting while applications are live.
func (m *Model) RLockParams() { m.paramMu.RLock() }

// RUnlockParams releases RLockParams.
func (m *Model) RUnlockParams() { m.paramMu.RUnlock() }

// NewModel builds a model for η-step history observations.
func NewModel(historyLen int, seed int64) *Model {
	if historyLen <= 0 {
		historyLen = gym.DefaultHistoryLen
	}
	rng := rand.New(rand.NewSource(seed))
	netDim := 3 * historyLen
	m := &Model{
		HistoryLen:  historyLen,
		actorPref:   nn.NewMLP(rng, WeightDim, PrefFeatures),
		actorAct:    nn.NewTanh(PrefFeatures),
		actorTrunk:  nn.NewMLP(rng, netDim+PrefFeatures, Hidden1, Hidden2, 1),
		criticPref:  nn.NewMLP(rng, WeightDim, PrefFeatures),
		criticAct:   nn.NewTanh(PrefFeatures),
		criticTrunk: nn.NewMLP(rng, netDim+PrefFeatures, Hidden1, Hidden2, 1),
		logStd:      &nn.Param{Name: "logstd", Value: []float64{0}, Grad: []float64{0}},
	}
	// backwardBatch uses the trunk's input gradient only under the preference
	// features and nothing of the preference sub-network's.
	for _, trunk := range []*nn.MLP{m.actorTrunk, m.criticTrunk} {
		trunk.DiscardInputGrad(netDim)
	}
	for _, pref := range []*nn.MLP{m.actorPref, m.criticPref} {
		pref.DiscardInputGrad(WeightDim)
	}
	return m
}

// ObsSize implements rl.ActorCritic: 3·η network features + 3 weights.
func (m *Model) ObsSize() int { return 3*m.HistoryLen + WeightDim }

// split separates an observation into network history and weight vector.
func (m *Model) split(obs []float64) (net, w []float64) {
	netDim := 3 * m.HistoryLen
	if len(obs) != netDim+WeightDim {
		panic(fmt.Sprintf("core: observation length %d, want %d", len(obs), netDim+WeightDim))
	}
	return obs[:netDim], obs[netDim:]
}

// forwardBatch runs one half-network (pref sub-network + trunk) over n
// row-major [n x ObsSize] observations, returning the [n x 1] outputs
// (aliasing trunk scratch). Each row is split into network history and
// weight vector; the weight features are concatenated with the history
// before the trunk, all inside reusable arenas.
func (m *Model) forwardBatch(pref *nn.MLP, act *nn.Tanh, trunk *nn.MLP, obs []float64, n int) []float64 {
	netDim := 3 * m.HistoryLen
	obsDim := netDim + WeightDim
	if len(obs) != n*obsDim {
		panic(fmt.Sprintf("core: observation batch length %d, want %d rows x %d", len(obs), n, obsDim))
	}
	m.wBuf = nn.Grow(m.wBuf, n*WeightDim)
	for r := 0; r < n; r++ {
		copy(m.wBuf[r*WeightDim:(r+1)*WeightDim], obs[r*obsDim+netDim:(r+1)*obsDim])
	}
	feat := act.ForwardBatch(pref.ForwardBatch(m.wBuf, n), n)

	jointDim := netDim + PrefFeatures
	m.jointBuf = nn.Grow(m.jointBuf, n*jointDim)
	for r := 0; r < n; r++ {
		copy(m.jointBuf[r*jointDim:r*jointDim+netDim], obs[r*obsDim:r*obsDim+netDim])
		copy(m.jointBuf[r*jointDim+netDim:(r+1)*jointDim], feat[r*PrefFeatures:(r+1)*PrefFeatures])
	}
	return trunk.ForwardBatch(m.jointBuf, n)
}

// backwardBatch propagates [n x 1] output gradients through one
// half-network evaluated by the most recent forwardBatch.
func (m *Model) backwardBatch(pref *nn.MLP, act *nn.Tanh, trunk *nn.MLP, dOut []float64, n int) {
	gJoint := trunk.BackwardBatch(dOut, n)
	netDim := 3 * m.HistoryLen
	jointDim := netDim + PrefFeatures
	// The history entries of each row are input gradients (discarded); the
	// preference-feature entries flow into the pref sub-network.
	m.featGrad = nn.Grow(m.featGrad, n*PrefFeatures)
	for r := 0; r < n; r++ {
		copy(m.featGrad[r*PrefFeatures:(r+1)*PrefFeatures], gJoint[r*jointDim+netDim:(r+1)*jointDim])
	}
	pref.BackwardBatch(act.BackwardBatch(m.featGrad, n), n)
}

// PolicyForward implements rl.ActorCritic.
func (m *Model) PolicyForward(obs []float64) (mean, std float64) {
	m.split(obs) // length validation with the single-sample error message
	mean = m.forwardBatch(m.actorPref, m.actorAct, m.actorTrunk, obs, 1)[0]
	ls := math.Max(minLogStd, math.Min(maxLogStd, m.logStd.Value[0]))
	return mean, math.Exp(ls)
}

// PolicyBackward implements rl.ActorCritic.
func (m *Model) PolicyBackward(dMean, dLogStd float64) {
	m.d1[0] = dMean
	m.backwardBatch(m.actorPref, m.actorAct, m.actorTrunk, m.d1[:], 1)
	if ls := m.logStd.Value[0]; ls > minLogStd && ls < maxLogStd {
		m.logStd.Grad[0] += dLogStd
	}
}

// ValueForward implements rl.ActorCritic.
func (m *Model) ValueForward(obs []float64) float64 {
	m.split(obs)
	return m.forwardBatch(m.criticPref, m.criticAct, m.criticTrunk, obs, 1)[0]
}

// ValueBackward implements rl.ActorCritic.
func (m *Model) ValueBackward(dV float64) {
	m.d1[0] = dV
	m.backwardBatch(m.criticPref, m.criticAct, m.criticTrunk, m.d1[:], 1)
}

// PolicyForwardBatch implements rl.BatchActorCritic: one batched pass of
// the actor half-network. The returned means alias trunk scratch.
func (m *Model) PolicyForwardBatch(obs []float64, n int) ([]float64, float64) {
	means := m.forwardBatch(m.actorPref, m.actorAct, m.actorTrunk, obs, n)
	ls := math.Max(minLogStd, math.Min(maxLogStd, m.logStd.Value[0]))
	return means, math.Exp(ls)
}

// PolicyBackwardBatch implements rl.BatchActorCritic.
func (m *Model) PolicyBackwardBatch(dMean, dLogStd []float64) {
	m.backwardBatch(m.actorPref, m.actorAct, m.actorTrunk, dMean, len(dMean))
	if ls := m.logStd.Value[0]; ls > minLogStd && ls < maxLogStd {
		for _, g := range dLogStd {
			m.logStd.Grad[0] += g
		}
	}
}

// ValueForwardBatch implements rl.BatchActorCritic.
func (m *Model) ValueForwardBatch(obs []float64, n int) []float64 {
	return m.forwardBatch(m.criticPref, m.criticAct, m.criticTrunk, obs, n)
}

// ValueBackwardBatch implements rl.BatchActorCritic.
func (m *Model) ValueBackwardBatch(dV []float64) {
	m.backwardBatch(m.criticPref, m.criticAct, m.criticTrunk, dV, len(dV))
}

// ActorParams implements rl.ActorCritic.
func (m *Model) ActorParams() []*nn.Param {
	ps := append([]*nn.Param{}, m.actorPref.Params()...)
	ps = append(ps, m.actorTrunk.Params()...)
	return append(ps, m.logStd)
}

// CriticParams implements rl.ActorCritic.
func (m *Model) CriticParams() []*nn.Param {
	ps := append([]*nn.Param{}, m.criticPref.Params()...)
	return append(ps, m.criticTrunk.Params()...)
}

// AllParams returns every trainable parameter (for snapshots and transfer).
func (m *Model) AllParams() []*nn.Param {
	return append(m.ActorParams(), m.CriticParams()...)
}

// CopyFrom copies all parameters from src (same architecture required).
func (m *Model) CopyFrom(src *Model) error {
	return nn.CopyParams(m.AllParams(), src.AllParams())
}

// Clone returns an independent deep copy of the model.
func (m *Model) Clone() *Model {
	c := NewModel(m.HistoryLen, 0)
	if err := c.CopyFrom(m); err != nil {
		panic("core: clone of identical architecture failed: " + err.Error())
	}
	return c
}

// TrainingReplica implements rl.ReplicaAgent: the replica shares this
// model's parameter values (it always evaluates the master's current
// weights, no copying) while owning private gradients and scratch arenas —
// the preference sub-networks, trunks and logStd all alias the master's
// value storage — so the data-parallel PPO update can run several replicas'
// batched forward/backward concurrently and reduce their gradients into the
// master.
func (m *Model) TrainingReplica() rl.BatchActorCritic {
	return &Model{
		HistoryLen:  m.HistoryLen,
		actorPref:   m.actorPref.Replica(),
		actorAct:    nn.NewTanh(PrefFeatures),
		actorTrunk:  m.actorTrunk.Replica(),
		criticPref:  m.criticPref.Replica(),
		criticAct:   nn.NewTanh(PrefFeatures),
		criticTrunk: m.criticTrunk.Replica(),
		logStd:      m.logStd.TrainingReplica(),
	}
}

// Snapshot captures the model parameters for serialization.
func (m *Model) Snapshot() nn.Snapshot { return nn.TakeSnapshot(m.AllParams()) }

// CheckFinite scans every trainable parameter for NaN/Inf, returning an
// error naming the first offending tensor. Online adaptation runs it under
// the parameter write lock before publishing an epoch, so a diverged update
// can never poison live applications. The caller must hold at least the
// read side of the parameter lock if writers may be active.
func (m *Model) CheckFinite() error { return nn.CheckFinite(m.AllParams()) }

// Restore loads parameters from a snapshot taken from an identical
// architecture.
func (m *Model) Restore(s nn.Snapshot) error { return s.Restore(m.AllParams()) }

// ActFor returns the deterministic action for a network-history observation
// under preference w: PolicyForward's mean, bit for bit, through serving's
// forward-only path (BatchInference on a batch of one), which keeps nothing
// for a backward. Like training's forward it takes no lock and uses the
// model's own scratch, so it belongs to one goroutine; concurrent callers
// use an Inference each.
func (m *Model) ActFor(w objective.Weights, netObs []float64) float64 {
	if m.act == nil {
		m.act = m.NewBatchInference()
	}
	ws, obs := [1]objective.Weights{w}, [1][]float64{netObs}
	m.act.load(ws[:], obs[:])
	return m.act.forward(1)[0]
}

// PolicyFor returns a congestion-control policy bound to preference w: it
// accepts plain network observations (3·η) and internally appends the weight
// vector, so a single MOCC model serves any registered application.
func (m *Model) PolicyFor(w objective.Weights) cc.Policy {
	return cc.PolicyFunc(func(netObs []float64) float64 {
		return m.ActFor(w, netObs)
	})
}

// AlgorithmFor wraps the model as a named cc.Algorithm for preference w,
// ready to drive any datapath or simulator. The algorithm evaluates the
// live model, so later online adaptation immediately benefits registered
// applications; it shares the model's inference scratch and must therefore
// stay on one goroutine.
func (m *Model) AlgorithmFor(name string, w objective.Weights) cc.Algorithm {
	if name == "" {
		name = "mocc"
	}
	return cc.NewRLRate(name, m.PolicyFor(w), m.HistoryLen)
}

// FrozenAlgorithmFor is AlgorithmFor on a private deep copy of the current
// parameters: the returned algorithm is unaffected by later training and
// safe to drive from a concurrent evaluation worker, which is how the
// pantheon scenario scheduler fans a trained model across parallel runs.
func (m *Model) FrozenAlgorithmFor(name string, w objective.Weights) cc.Algorithm {
	return m.Clone().AlgorithmFor(name, w)
}
