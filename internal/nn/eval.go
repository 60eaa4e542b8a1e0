package nn

import "fmt"

// FastTanh exposes the table-driven tanh interpolant used by the Tanh layer
// (max abs error ~2e-11 vs math.Tanh) so forward-only callers outside the
// package evaluate activations bit-identically to the training path.
func FastTanh(x float64) float64 { return fastTanh(x) }

// Evaluator is a forward-only view of an MLP: it references the network's
// parameters but owns every evaluation buffer, so any number of Evaluators
// over the same MLP may run concurrently with each other. Parameter *writes*
// (training, adaptation) still need external synchronization against all
// Evaluators reading them.
//
// Every row is evaluated by the one kernel MLP.Forward runs at n = 1
// (linearRows) and the same fastTanh activation, so each output row is
// bit-identical to MLP.Forward on that row at any batch size.
type Evaluator struct {
	steps  []evalStep
	maxDim int       // widest layer, per batch row
	a, b   []float64 // ping-pong activation buffers
}

// evalStep is one layer of the evaluation pipeline: a Linear reference or,
// when linear is nil, an element-wise tanh of the given width.
type evalStep struct {
	linear *Linear
	size   int
}

// NewEvaluator builds a concurrent-safe forward view of the network. It
// panics on layer types other than Linear and Tanh (the only layers NewMLP
// produces).
func (m *MLP) NewEvaluator() *Evaluator {
	e := &Evaluator{}
	maxDim := 1
	for _, l := range m.Layers {
		switch t := l.(type) {
		case *Linear:
			e.steps = append(e.steps, evalStep{linear: t})
		case *Tanh:
			e.steps = append(e.steps, evalStep{size: t.size})
		default:
			panic(fmt.Sprintf("nn: Evaluator cannot wrap layer type %T", l))
		}
		if l.OutSize() > maxDim {
			maxDim = l.OutSize()
		}
	}
	e.maxDim = maxDim
	e.a = make([]float64, maxDim)
	e.b = make([]float64, maxDim)
	return e
}

// ForwardBatch evaluates n input vectors packed row-major in x
// (len(x) must be n times the network's input width) and returns the
// n outputs row-major. The returned slice aliases evaluator scratch and is
// valid until the next ForwardBatch on the same Evaluator; the input is
// never written. Scratch grows to the largest batch seen and is reused, so
// steady-state calls allocate nothing.
func (e *Evaluator) ForwardBatch(x []float64, n int) []float64 {
	if n <= 0 {
		panic(fmt.Sprintf("nn: Evaluator batch size %d", n))
	}
	e.a = Grow(e.a, n*e.maxDim)
	e.b = Grow(e.b, n*e.maxDim)
	cur := x
	out, next := e.a, e.b
	for _, s := range e.steps {
		if l := s.linear; l != nil {
			if len(cur) != n*l.In {
				panic(fmt.Sprintf("nn: Evaluator batch input size %d, want %d", len(cur), n*l.In))
			}
			dst := out[:n*l.Out]
			linearRows(l.W.Value, l.B.Value, cur, dst, n, l.In, l.Out)
			cur = dst
		} else {
			dst := out[:n*s.size]
			for i, v := range cur {
				dst[i] = fastTanh(v)
			}
			cur = dst
		}
		out, next = next, out
	}
	return cur
}
