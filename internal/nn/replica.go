package nn

import "fmt"

// Training replicas are the backward-capable sibling of Evaluator: a replica
// network SHARES its master's parameter values (no copy, so replicas always
// see the master's current weights the instant an optimizer step completes)
// while owning private gradient buffers and forward/backward scratch. W
// replicas may therefore run batched forward/backward concurrently, as long
// as nothing writes the shared values during the parallel section; the
// data-parallel PPO update (internal/rl) kicks replicas, joins, reduces
// their gradients into the master in fixed order, and only then steps the
// optimizer, so the mutation is always strictly ordered against replica
// reads.

// TrainingReplica returns a Param sharing this parameter's Value slice but
// owning a private, zeroed gradient buffer.
func (p *Param) TrainingReplica() *Param {
	return &Param{Name: p.Name, Value: p.Value, Grad: make([]float64, len(p.Grad))}
}

// Replica returns a Linear layer sharing this layer's weight and bias values
// (via Param.TrainingReplica) with private gradients and scratch arenas.
func (l *Linear) Replica() *Linear {
	return &Linear{In: l.In, Out: l.Out, W: l.W.TrainingReplica(), B: l.B.TrainingReplica(), GradInFrom: l.GradInFrom}
}

// Replica returns an independent Tanh layer of the same width (tanh has no
// parameters; only scratch needs to be private).
func (t *Tanh) Replica() *Tanh { return NewTanh(t.size) }

// Replica returns an MLP whose layers share this network's parameter values
// but own private gradients and scratch. It panics on layer types other than
// Linear and Tanh (the only layers NewMLP produces).
func (m *MLP) Replica() *MLP {
	r := &MLP{Layers: make([]Layer, len(m.Layers))}
	for i, l := range m.Layers {
		switch t := l.(type) {
		case *Linear:
			r.Layers[i] = t.Replica()
		case *Tanh:
			r.Layers[i] = t.Replica()
		default:
			panic(fmt.Sprintf("nn: Replica cannot wrap layer type %T", l))
		}
	}
	return r
}

// AccumulateInto adds each src parameter's gradient into the matching dst
// parameter's gradient (dst[i].Grad += src[i].Grad) through the addTo reduce
// kernel (SSE2 on amd64). It is the reduction step of the data-parallel PPO
// update: calling it once per worker in a fixed order keeps training
// bit-deterministic for a fixed seed and worker count.
func AccumulateInto(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if len(dst[i].Grad) != len(src[i].Grad) {
			return fmt.Errorf("nn: parameter %d gradient size mismatch %d vs %d",
				i, len(dst[i].Grad), len(src[i].Grad))
		}
		addTo(dst[i].Grad, src[i].Grad)
	}
	return nil
}
