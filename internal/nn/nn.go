// Package nn is a small, dependency-free neural-network library sufficient
// to reproduce the MOCC model: fully connected layers with tanh activations,
// manual reverse-mode differentiation, an Adam optimizer, a diagonal-Gaussian
// policy head, and JSON model serialization.
//
// The library is built around batched, allocation-free kernels: every layer
// processes row-major [batch x dim] matrices through ForwardBatch and
// BackwardBatch, holding all intermediate activations and gradients in
// reusable per-layer scratch arenas, so the steady-state training hot path
// performs zero allocations. The single-sample Forward/Backward API is kept
// as a thin batch-of-1 wrapper for the congestion-control deployment path.
//
// Returned slices alias layer-owned scratch buffers and are valid until the
// next Forward/Backward call on the same network; callers that need to
// retain results must copy them.
package nn

import (
	"fmt"
	"math"
	"math/rand"
)

// Param is a flat tensor of trainable values together with its accumulated
// gradient. Layers expose their parameters as []*Param so optimizers can
// treat a whole network uniformly.
type Param struct {
	Name  string
	Value []float64
	Grad  []float64
}

// newParam allocates a named parameter of n values.
func newParam(name string, n int) *Param {
	return &Param{Name: name, Value: make([]float64, n), Grad: make([]float64, n)}
}

// ZeroGrad clears the accumulated gradient.
func (p *Param) ZeroGrad() {
	clear(p.Grad)
}

// Grow returns buf resized to n entries, reusing its backing array when the
// capacity suffices. Contents are unspecified; callers overwrite them. It is
// the scratch-arena primitive shared by the batched kernels and their
// callers (rl, core).
func Grow(buf []float64, n int) []float64 {
	if cap(buf) < n {
		return make([]float64, n)
	}
	return buf[:n]
}

// Layer is a differentiable computation stage over row-major [batch x dim]
// matrices. ForwardBatch caches whatever state BackwardBatch needs;
// BackwardBatch consumes the gradient of the loss with respect to the layer
// output and returns the gradient with respect to the input, accumulating
// parameter gradients along the way. The single-sample Forward/Backward
// methods are batch-of-1 conveniences.
type Layer interface {
	Forward(x []float64) []float64
	Backward(gradOut []float64) []float64
	// ForwardBatch evaluates n rows at once; x is row-major [n x InSize].
	// The returned [n x OutSize] matrix aliases layer scratch.
	ForwardBatch(x []float64, n int) []float64
	// BackwardBatch backpropagates the row-major [n x OutSize] output
	// gradient of the most recent ForwardBatch, returning the [n x InSize]
	// input gradient (aliasing layer scratch).
	BackwardBatch(gradOut []float64, n int) []float64
	Params() []*Param
	OutSize() int
	InSize() int
}

// Linear is a fully connected layer: y = Wx + b, with W stored row-major
// (out x in).
type Linear struct {
	In, Out int
	W       *Param
	B       *Param

	// GradInFrom > 0 declares that callers discard the first GradInFrom
	// columns of the input gradient: BackwardBatch returns them as zeros and
	// skips their share of the input-gradient pass. The other columns and
	// every parameter gradient are computed exactly as with 0.
	GradInFrom int

	lastIn []float64 // cached [batch x In] input from ForwardBatch
	out    []float64 // scratch [batch x Out] activations
	cols   []float64 // column-path scratch: [In][ld] input, then [Out][ld] output
	gradIn []float64 // scratch [batch x In] input gradients
	batch  int       // rows cached by the most recent ForwardBatch
}

// NewLinear creates a Linear layer with Xavier/Glorot-uniform initialized
// weights drawn from rng and zero biases.
func NewLinear(in, out int, rng *rand.Rand) *Linear {
	l := &Linear{
		In:  in,
		Out: out,
		W:   newParam(fmt.Sprintf("linear_%dx%d_w", out, in), in*out),
		B:   newParam(fmt.Sprintf("linear_%dx%d_b", out, in), out),
	}
	limit := math.Sqrt(6.0 / float64(in+out))
	for i := range l.W.Value {
		l.W.Value[i] = (rng.Float64()*2 - 1) * limit
	}
	return l
}

// Forward implements Layer.
func (l *Linear) Forward(x []float64) []float64 {
	return l.ForwardBatch(x, 1)
}

// ForwardBatch implements Layer. It is the serving forward's sum order at
// every batch size: each (row, output) is linearRow1Asm's sum, from zero in
// index order with the bias last, so every row has the bits of Forward on
// that row alone. Below colRows rows, or without AVX, linearRows runs the
// n = 1 kernel on each row; from colRows rows up the batch is transposed
// into column scratch (ld = n rounded up to colRows, padding rows zero),
// runs linearCols, and is transposed back. The cached input stays row-major
// for BackwardBatch.
func (l *Linear) ForwardBatch(x []float64, n int) []float64 {
	l.cacheInput(x, n)
	if !useAVX || n < colRows {
		linearRows(l.W.Value, l.B.Value, l.lastIn, l.out, n, l.In, l.Out)
		return l.out
	}
	ld := (n + colRows - 1) / colRows * colRows
	l.cols = Grow(l.cols, ld*(l.In+l.Out))
	xt, yt := l.cols[:ld*l.In], l.cols[ld*l.In:]
	toCols(xt, l.lastIn, n, l.In, ld)
	linearCols(l.W.Value, l.B.Value, xt, yt, l.In, l.Out, ld)
	fromCols(l.out, yt, n, l.Out, ld)
	return l.out
}

// cacheInput keeps a copy of the n-row input x for BackwardBatch and sizes
// the output scratch.
func (l *Linear) cacheInput(x []float64, n int) {
	if len(x) != n*l.In {
		panic(fmt.Sprintf("nn: Linear input size %d, want %d rows x %d", len(x), n, l.In))
	}
	l.lastIn = Grow(l.lastIn, n*l.In)
	copy(l.lastIn, x)
	l.out = Grow(l.out, n*l.Out)
	l.batch = n
}

// Backward implements Layer. It accumulates dL/dW and dL/db and returns
// dL/dx for the cached input.
func (l *Linear) Backward(gradOut []float64) []float64 {
	return l.BackwardBatch(gradOut, 1)
}

// BackwardBatch implements Layer.
func (l *Linear) BackwardBatch(gradOut []float64, n int) []float64 {
	if len(gradOut) != n*l.Out {
		panic(fmt.Sprintf("nn: Linear grad size %d, want %d rows x %d", len(gradOut), n, l.Out))
	}
	if n != l.batch {
		panic(fmt.Sprintf("nn: Linear backward batch %d, but forward cached %d rows", n, l.batch))
	}
	l.gradIn = Grow(l.gradIn, n*l.In)
	in, out := l.In, l.Out

	// Bias gradients, four batch rows per sum: bg[o] += g0[o] + g1[o] +
	// g2[o] + g3[o] for each block of rows, then the rows left one by one.
	// Rows outside and outputs inside walk gradOut in order.
	bg := l.B.Grad[:out]
	r := 0
	for ; r+3 < n; r += 4 {
		g0 := gradOut[r*out : (r+1)*out][:len(bg)]
		g1 := gradOut[(r+1)*out : (r+2)*out][:len(bg)]
		g2 := gradOut[(r+2)*out : (r+3)*out][:len(bg)]
		g3 := gradOut[(r+3)*out : (r+4)*out][:len(bg)]
		for o := range bg {
			bg[o] += g0[o] + g1[o] + g2[o] + g3[o]
		}
	}
	for ; r < n; r++ {
		g0 := gradOut[r*out : (r+1)*out][:len(bg)]
		for o := range bg {
			bg[o] += g0[o]
		}
	}

	// Weight gradients: row o gathers every batch row's input scaled by that
	// row's gradient at output o. With AVX, axpyRows4 takes four rows per
	// pass over the inputs.
	o := 0
	if useAVX {
		for ; o+3 < out; o += 4 {
			axpyRows4(l.W.Grad[o*in:], in, in, l.lastIn, in, gradOut[o:], out, 1, n)
		}
	}
	for ; o < out; o++ {
		axpyRows(l.W.Grad[o*in:(o+1)*in], l.lastIn, in, gradOut[o:], out, n)
	}

	// Input gradients gradIn = gradOut x W: row r gathers every weight row
	// scaled by that row's gradient at the weight's output. With AVX,
	// axpyRows4 takes four batch rows per pass over the weights.
	clear(l.gradIn)
	from := l.GradInFrom
	if from >= in {
		return l.gradIn
	}
	r = 0
	if useAVX {
		for ; r+3 < n; r += 4 {
			axpyRows4(l.gradIn[r*in+from:], in, in-from, l.W.Value[from:], in, gradOut[r*out:], 1, out, out)
		}
	}
	for ; r < n; r++ {
		axpyRows(l.gradIn[r*in+from:(r+1)*in], l.W.Value[from:], in, gradOut[r*out:(r+1)*out], 1, out)
	}
	return l.gradIn
}

// Params implements Layer.
func (l *Linear) Params() []*Param { return []*Param{l.W, l.B} }

// OutSize implements Layer.
func (l *Linear) OutSize() int { return l.Out }

// InSize implements Layer.
func (l *Linear) InSize() int { return l.In }

// fastTanh tables: cubic Hermite interpolation of tanh on [-tanhMax,
// tanhMax] with tanhN intervals, exact values and derivatives at the nodes
// (a node falls exactly on 0, so fastTanh(0) == 0). Maximum absolute error
// is ~2e-11 — far below every training tolerance — while evaluating in a
// handful of pipelined multiplies instead of math.Tanh's exp-based path.
// |x| >= tanhMax returns ±1 (1-tanh(16) ≈ 3e-14). The signed domain avoids
// Abs/Copysign sign plumbing in the hot loop.
const (
	tanhN   = 4096
	tanhMax = 16.0
)

var tanhCoef = func() *[tanhN * 4]float64 {
	var c [tanhN * 4]float64
	const dx = 2 * tanhMax / tanhN
	for j := 0; j < tanhN; j++ {
		x0 := -tanhMax + float64(float64(j)*dx)
		y0, y1 := math.Tanh(x0), math.Tanh(x0+dx)
		d0 := float64((1 - float64(y0*y0)) * dx)
		d1 := float64((1 - float64(y1*y1)) * dx)
		c[j*4+0] = y0
		c[j*4+1] = d0
		c[j*4+2] = float64(3*(y1-y0)) - float64(2*d0) - d1
		c[j*4+3] = float64(2*(y0-y1)) + d0 + d1
	}
	return &c
}()

// fastTanh evaluates the interpolant; fastTanh(0) == 0 exactly and NaN
// propagates like math.Tanh. It is the oracle of tanhAVX, which computes the
// same sequence four lanes at a time; the conversions round each product on
// its own, so no GOARCH fuses it into the add that follows (the table's
// construction above follows the same rule).
func fastTanh(x float64) float64 {
	t := float64((x + tanhMax) * (tanhN / (2 * tanhMax)))
	if !(t > 0) {
		if math.IsNaN(x) {
			return x
		}
		return -1
	}
	if t >= tanhN {
		return 1
	}
	j := int(t)
	u := t - float64(j)
	c := tanhCoef[j*4 : j*4+4 : j*4+4]
	return c[0] + float64(u*(c[1]+float64(u*(c[2]+float64(u*c[3])))))
}

// FastTanh writes the table-driven tanh interpolant of src[i] into dst[i]
// (max abs error ~2e-11 vs math.Tanh); dst and src have equal length, and
// dst may be src. It is the Tanh layer's activation, so forward-only
// callers outside the package evaluate it bit-identically to the training
// path. With AVX, tanhAVX takes the longest prefix of a multiple of four
// elements and fastTanh the rest; each element's bits are fastTanh's.
func FastTanh(dst, src []float64) {
	if len(dst) != len(src) {
		panic("nn: FastTanh length mismatch")
	}
	i := 0
	if useAVX && len(dst) >= 4 {
		i = len(dst) &^ 3
		tanhAVX(&dst[0], &src[0], i)
	}
	for ; i < len(dst); i++ {
		dst[i] = fastTanh(src[i])
	}
}

// tanhBack writes the tanh backward dst[i] = g[i]·(1 - y[i]²) from the
// layer's cached outputs y; the three slices have equal length. With AVX,
// tanhBackAVX takes the longest prefix of a multiple of four elements and
// tanhBackGo, its oracle, the rest.
func tanhBack(dst, g, y []float64) {
	g, y = g[:len(dst)], y[:len(dst)]
	i := 0
	if useAVX && len(dst) >= 4 {
		i = len(dst) &^ 3
		tanhBackAVX(&dst[0], &g[0], &y[0], i)
	}
	tanhBackGo(dst[i:], g[i:], y[i:])
}

// tanhBackGo is tanhBack in Go, y·y rounded on its own.
func tanhBackGo(dst, g, y []float64) {
	g, y = g[:len(dst)], y[:len(dst)]
	for i, gi := range g {
		yi := y[i]
		dst[i] = gi * (1 - float64(yi*yi))
	}
}

// Tanh is an element-wise tanh activation layer.
type Tanh struct {
	size    int
	lastOut []float64 // cached [batch x size] outputs
	gradIn  []float64 // scratch [batch x size] input gradients
	batch   int
}

// NewTanh creates a tanh activation over vectors of the given size.
func NewTanh(size int) *Tanh { return &Tanh{size: size} }

// Forward implements Layer.
func (t *Tanh) Forward(x []float64) []float64 {
	return t.ForwardBatch(x, 1)
}

// ForwardBatch implements Layer.
func (t *Tanh) ForwardBatch(x []float64, n int) []float64 {
	if len(x) != n*t.size {
		panic(fmt.Sprintf("nn: Tanh input size %d, want %d rows x %d", len(x), n, t.size))
	}
	t.lastOut = Grow(t.lastOut, n*t.size)
	t.batch = n
	FastTanh(t.lastOut, x)
	return t.lastOut
}

// Backward implements Layer.
func (t *Tanh) Backward(gradOut []float64) []float64 {
	return t.BackwardBatch(gradOut, 1)
}

// BackwardBatch implements Layer.
func (t *Tanh) BackwardBatch(gradOut []float64, n int) []float64 {
	if len(gradOut) != n*t.size {
		panic(fmt.Sprintf("nn: Tanh grad size %d, want %d rows x %d", len(gradOut), n, t.size))
	}
	if n != t.batch {
		panic(fmt.Sprintf("nn: Tanh backward batch %d, but forward cached %d rows", n, t.batch))
	}
	t.gradIn = Grow(t.gradIn, n*t.size)
	tanhBack(t.gradIn, gradOut, t.lastOut)
	return t.gradIn
}

// Params implements Layer.
func (t *Tanh) Params() []*Param { return nil }

// OutSize implements Layer.
func (t *Tanh) OutSize() int { return t.size }

// InSize implements Layer.
func (t *Tanh) InSize() int { return t.size }

// MLP chains layers into a feed-forward network.
type MLP struct {
	Layers []Layer
}

// NewMLP builds a tanh MLP with the given layer sizes; sizes[0] is the input
// dimension and sizes[len-1] the (linear) output dimension. Hidden layers
// use tanh activations, matching the paper's architecture (§5).
func NewMLP(rng *rand.Rand, sizes ...int) *MLP {
	if len(sizes) < 2 {
		panic("nn: NewMLP needs at least input and output sizes")
	}
	var layers []Layer
	for i := 0; i < len(sizes)-1; i++ {
		layers = append(layers, NewLinear(sizes[i], sizes[i+1], rng))
		if i < len(sizes)-2 {
			layers = append(layers, NewTanh(sizes[i+1]))
		}
	}
	return &MLP{Layers: layers}
}

// DiscardInputGrad declares that callers of Backward/BackwardBatch ignore the
// gradient with respect to the network's first cols input columns (all of
// them when cols is the input width), so the first layer need not compute
// it (Linear.GradInFrom). Parameter gradients are unaffected.
func (m *MLP) DiscardInputGrad(cols int) {
	m.Layers[0].(*Linear).GradInFrom = cols
}

// Forward implements Layer.
func (m *MLP) Forward(x []float64) []float64 {
	return m.ForwardBatch(x, 1)
}

// ForwardBatch implements Layer. Intermediate activations live in each
// layer's scratch arena, so steady-state evaluation allocates nothing. On
// the column path (AVX, colRows rows or more) the activations stay in
// column scratch from one layer to the next (forwardCols); otherwise each
// layer runs its own ForwardBatch.
func (m *MLP) ForwardBatch(x []float64, n int) []float64 {
	if useAVX && n >= colRows {
		return m.forwardCols(x, n)
	}
	for _, l := range m.Layers {
		x = l.ForwardBatch(x, n)
	}
	return x
}

// forwardCols is ForwardBatch with the activations kept column-major
// between layers, each layer caching what its BackwardBatch needs exactly as
// its own ForwardBatch does. The input is transposed once, a Tanh runs
// FastTanh in place on the column block before writing its row-major cache
// (which is also the next Linear's input), and a Linear transposes its
// output back only when no Tanh follows. Every element goes through the
// kernels of the per-layer path, so outputs and caches have its bits; what
// goes is each later Linear's transpose of its input into columns.
func (m *MLP) forwardCols(x []float64, n int) []float64 {
	ld := (n + colRows - 1) / colRows * colRows
	var xt []float64 // x column-major, or nil when only row-major x is current
	for i, layer := range m.Layers {
		switch l := layer.(type) {
		case *Linear:
			l.cacheInput(x, n)
			l.cols = Grow(l.cols, ld*(l.In+l.Out))
			if xt == nil {
				xt = l.cols[:ld*l.In]
				toCols(xt, l.lastIn, n, l.In, ld)
			}
			yt := l.cols[ld*l.In:]
			linearCols(l.W.Value, l.B.Value, xt, yt, l.In, l.Out, ld)
			xt = yt
			if i+1 < len(m.Layers) {
				if _, ok := m.Layers[i+1].(*Tanh); ok {
					continue // x is the Tanh's output, written below
				}
			}
			fromCols(l.out, yt, n, l.Out, ld)
			x, xt = l.out, nil
		case *Tanh:
			if xt == nil {
				x = l.ForwardBatch(x, n)
				continue
			}
			if len(xt) != l.size*ld {
				panic(fmt.Sprintf("nn: Tanh input width %d, want %d", len(xt)/ld, l.size))
			}
			FastTanh(xt, xt)
			l.lastOut = Grow(l.lastOut, n*l.size)
			l.batch = n
			fromCols(l.lastOut, xt, n, l.size, ld)
			x = l.lastOut
		default:
			x, xt = layer.ForwardBatch(x, n), nil
		}
	}
	return x
}

// Backward implements Layer.
func (m *MLP) Backward(gradOut []float64) []float64 {
	return m.BackwardBatch(gradOut, 1)
}

// BackwardBatch implements Layer.
func (m *MLP) BackwardBatch(gradOut []float64, n int) []float64 {
	for i := len(m.Layers) - 1; i >= 0; i-- {
		gradOut = m.Layers[i].BackwardBatch(gradOut, n)
	}
	return gradOut
}

// Params implements Layer.
func (m *MLP) Params() []*Param {
	var ps []*Param
	for _, l := range m.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

// OutSize implements Layer.
func (m *MLP) OutSize() int { return m.Layers[len(m.Layers)-1].OutSize() }

// InSize implements Layer.
func (m *MLP) InSize() int { return m.Layers[0].InSize() }

// ZeroGrad clears the gradients of every parameter in the network.
func ZeroGrad(ps []*Param) {
	for _, p := range ps {
		p.ZeroGrad()
	}
}

// CopyParams copies parameter values (not gradients) from src to dst. The
// two networks must have identical shapes.
func CopyParams(dst, src []*Param) error {
	if len(dst) != len(src) {
		return fmt.Errorf("nn: parameter count mismatch %d vs %d", len(dst), len(src))
	}
	for i := range dst {
		if len(dst[i].Value) != len(src[i].Value) {
			return fmt.Errorf("nn: parameter %d size mismatch %d vs %d",
				i, len(dst[i].Value), len(src[i].Value))
		}
		copy(dst[i].Value, src[i].Value)
	}
	return nil
}

// ClipGradNorm rescales all gradients so their global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm.
func ClipGradNorm(ps []*Param, maxNorm float64) float64 {
	var sumSq float64
	for _, p := range ps {
		for _, g := range p.Grad {
			sumSq += g * g
		}
	}
	norm := math.Sqrt(sumSq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range ps {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}

// NumParams counts the scalar parameters in ps.
func NumParams(ps []*Param) int {
	n := 0
	for _, p := range ps {
		n += len(p.Value)
	}
	return n
}
