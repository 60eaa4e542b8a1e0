package nn

import "fmt"

// Evaluator is a forward-only view of an MLP: it references the network's
// parameters but owns every evaluation buffer, so any number of Evaluators
// over the same MLP may run concurrently with each other. Parameter *writes*
// (training, adaptation) still need external synchronization against all
// Evaluators reading them.
//
// Every (row, output) sum is the one MLP.Forward computes at n = 1
// (linearRow1Asm's order: from zero in index order, the bias last) and every
// activation the same fastTanh, so each output row is bit-identical to
// MLP.Forward on that row at any batch size. Batches of colRows or more rows
// run linearCols over column-major scratch when the CPU has AVX; smaller
// batches run linearRows, the n = 1 kernel on each row.
type Evaluator struct {
	steps  []evalStep
	in     int       // input width
	maxDim int       // widest layer input or output, per batch row
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
	for i, l := range m.Layers {
		in := 0
		switch t := l.(type) {
		case *Linear:
			e.steps = append(e.steps, evalStep{linear: t})
			in = t.In
		case *Tanh:
			e.steps = append(e.steps, evalStep{size: t.size})
			in = t.size
		default:
			panic(fmt.Sprintf("nn: Evaluator cannot wrap layer type %T", l))
		}
		if i == 0 {
			e.in = in
		}
		maxDim = max(maxDim, in, l.OutSize())
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
	if len(x) != n*e.in {
		panic(fmt.Sprintf("nn: Evaluator batch input size %d, want %d", len(x), n*e.in))
	}
	if useAVX && n >= colRows {
		return e.forwardCols(x, n)
	}
	e.a = Grow(e.a, n*e.maxDim)
	e.b = Grow(e.b, n*e.maxDim)
	cur := x
	out, next := e.a, e.b
	for _, s := range e.steps {
		if l := s.linear; l != nil {
			dst := out[:n*l.Out]
			linearRows(l.W.Value, l.B.Value, cur, dst, n, l.In, l.Out)
			cur = dst
		} else {
			dst := out[:n*s.size]
			FastTanh(dst, cur)
			cur = dst
		}
		out, next = next, out
	}
	return cur
}

// forwardCols is ForwardBatch on the column path: the input is transposed
// once into [width][ld] scratch (ld = n rounded up to colRows, padding rows
// zero), every layer runs there — linearCols for a Linear, FastTanh in place
// on the whole [size][ld] block for a Tanh — and the output is transposed
// back. Padding rows are computed and never read.
func (e *Evaluator) forwardCols(x []float64, n int) []float64 {
	ld := (n + colRows - 1) / colRows * colRows
	e.a = Grow(e.a, ld*e.maxDim)
	e.b = Grow(e.b, ld*e.maxDim)
	cur, free := e.a, e.b
	dim := e.in
	toCols(cur, x, n, dim, ld)
	for _, s := range e.steps {
		if l := s.linear; l != nil {
			linearCols(l.W.Value, l.B.Value, cur, free, l.In, l.Out, ld)
			cur, free = free, cur
			dim = l.Out
			continue
		}
		act := cur[:s.size*ld]
		FastTanh(act, act)
	}
	y := free[:n*dim]
	fromCols(y, cur, n, dim, ld)
	return y
}
