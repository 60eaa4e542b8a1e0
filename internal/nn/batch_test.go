package nn

import (
	"math"
	"math/rand"
	"testing"
)

// randBatch fills a deterministic [rows x dim] matrix.
func randBatch(seed int64, rows, dim int) []float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([]float64, rows*dim)
	for i := range x {
		x[i] = rng.Float64()*4 - 2
	}
	return x
}

// TestForwardBatchMatchesSingle pins training's batched forward to its
// single-sample one bit for bit: every row of MLP.ForwardBatch equals
// MLP.Forward on that row alone, on the 40-64-32-2 bench shape with drawn
// biases, at batch sizes on both sides of the column path's row block and
// its padding. This is what makes PPO's ratio exactly 1 before the first
// optimizer step.
func TestForwardBatchMatchesSingle(t *testing.T) { forwardBatchMatchesSingle(t) }

func forwardBatchMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m := randomBiases(NewMLP(rng, 40, 64, 32, 2), rng)
	for _, n := range []int{1, 2, 3, 4, 5, 9, 13, 64, 65} {
		x := randBatch(int64(22+n), n, 40)
		got := append([]float64(nil), m.ForwardBatch(x, n)...)
		for r := 0; r < n; r++ {
			for o, w := range m.Forward(x[r*40 : (r+1)*40]) {
				if g := got[r*2+o]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("n %d row %d out %d: batched %v, single %v", n, r, o, g, w)
				}
			}
		}
	}
}

// TestMLPForwardBatchMatchesLayers pins MLP.ForwardBatch, which keeps the
// activations in column scratch between layers, to driving the same layers
// one Layer.ForwardBatch at a time: the outputs and, through a backward
// that reads every layer's cache, the input and parameter gradients must
// agree bit for bit. Batch sizes cover both paths and the padding rows;
// the last network ends in a Tanh and holds a Linear whose next layer is
// another Linear.
func TestMLPForwardBatchMatchesLayers(t *testing.T) {
	nets := []func(*rand.Rand) *MLP{
		func(rng *rand.Rand) *MLP { return NewMLP(rng, 40, 64, 32, 2) },
		func(rng *rand.Rand) *MLP { return NewMLP(rng, 3, 16) },
		func(rng *rand.Rand) *MLP {
			return &MLP{Layers: []Layer{NewLinear(5, 9, rng), NewLinear(9, 6, rng), NewTanh(6)}}
		},
	}
	for k, build := range nets {
		for _, n := range []int{1, 3, 4, 6, 16, 65} {
			chained := randomBiases(build(rand.New(rand.NewSource(101))), rand.New(rand.NewSource(102)))
			layered := randomBiases(build(rand.New(rand.NewSource(101))), rand.New(rand.NewSource(102)))
			chained.DiscardInputGrad(2)
			layered.DiscardInputGrad(2)
			in, out := chained.InSize(), chained.OutSize()
			x := randBatch(int64(103+n), n, in)
			g := randBatch(int64(104+n), n, out)

			ZeroGrad(chained.Params())
			ZeroGrad(layered.Params())
			y := append([]float64(nil), chained.ForwardBatch(x, n)...)
			want := x
			for _, l := range layered.Layers {
				want = l.ForwardBatch(want, n)
			}
			gi := append([]float64(nil), chained.BackwardBatch(g, n)...)
			wantGi := layered.BackwardBatch(g, n)
			for _, c := range []struct {
				what      string
				got, want []float64
			}{{"output", y, want}, {"input grad", gi, wantGi}} {
				for i := range c.want {
					if math.Float64bits(c.got[i]) != math.Float64bits(c.want[i]) {
						t.Fatalf("net %d n %d: %s %d = %v, per-layer forward %v", k, n, c.what, i, c.got[i], c.want[i])
					}
				}
			}
			pc, pl := chained.Params(), layered.Params()
			for i := range pc {
				for j := range pc[i].Grad {
					if math.Float64bits(pc[i].Grad[j]) != math.Float64bits(pl[i].Grad[j]) {
						t.Fatalf("net %d n %d: param %s[%d] grad %v, per-layer forward %v",
							k, n, pc[i].Name, j, pc[i].Grad[j], pl[i].Grad[j])
					}
				}
			}
		}
	}
}

// TestBackwardBatchMatchesSingle: one batched backward must accumulate the
// same parameter gradients and return the same input gradients as looping
// the single-sample path over the rows.
func TestBackwardBatchMatchesSingle(t *testing.T) {
	rngA := rand.New(rand.NewSource(31))
	rngB := rand.New(rand.NewSource(31))
	a := NewMLP(rngA, 6, 10, 3)
	b := NewMLP(rngB, 6, 10, 3)

	const n = 8
	x := randBatch(32, n, 6)
	g := randBatch(33, n, 3)

	ZeroGrad(a.Params())
	a.ForwardBatch(x, n)
	gradIn := append([]float64(nil), a.BackwardBatch(g, n)...)

	ZeroGrad(b.Params())
	for r := 0; r < n; r++ {
		b.Forward(x[r*6 : (r+1)*6])
		gi := b.Backward(g[r*3 : (r+1)*3])
		for i := range gi {
			if math.Abs(gi[i]-gradIn[r*6+i]) > 1e-9 {
				t.Fatalf("row %d input grad %d: batched %v vs single %v",
					r, i, gradIn[r*6+i], gi[i])
			}
		}
	}

	pa, pb := a.Params(), b.Params()
	for i := range pa {
		for j := range pa[i].Grad {
			if d := math.Abs(pa[i].Grad[j] - pb[i].Grad[j]); d > 1e-9 {
				t.Fatalf("param %s[%d]: batched grad %v vs accumulated single %v",
					pa[i].Name, j, pa[i].Grad[j], pb[i].Grad[j])
			}
		}
	}
}

// TestBatchGradientCheck validates the batched backward pass directly
// against central finite differences on a summed loss over the batch.
func TestBatchGradientCheck(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	m := NewMLP(rng, 3, 5, 2)
	const n = 4
	x := randBatch(42, n, 3)

	loss := func() float64 {
		y := m.ForwardBatch(x, n)
		s := 0.0
		for _, v := range y {
			s += v
		}
		return s
	}

	ZeroGrad(m.Params())
	y := m.ForwardBatch(x, n)
	g := make([]float64, len(y))
	for i := range g {
		g[i] = 1
	}
	m.BackwardBatch(g, n)

	const eps = 1e-6
	for _, p := range m.Params() {
		for j := range p.Value {
			orig := p.Value[j]
			p.Value[j] = orig + eps
			up := loss()
			p.Value[j] = orig - eps
			down := loss()
			p.Value[j] = orig
			numeric := (up - down) / (2 * eps)
			if math.Abs(numeric-p.Grad[j]) > 1e-4*(1+math.Abs(numeric)) {
				t.Fatalf("param %s[%d]: numeric %v vs analytic %v", p.Name, j, numeric, p.Grad[j])
			}
		}
	}
}

// TestDiscardInputGrad: declaring leading input columns discarded zeroes
// exactly those columns of the returned input gradient and changes no other
// bit — not of the remaining columns, not of any parameter gradient —
// whether some or all columns go, for a batch and for a single row.
func TestDiscardInputGrad(t *testing.T) {
	const in = 7
	for _, cols := range []int{2, 5, in} {
		for _, n := range []int{1, 9} {
			full := NewMLP(rand.New(rand.NewSource(91)), in, 10, 3)
			part := NewMLP(rand.New(rand.NewSource(91)), in, 10, 3)
			part.DiscardInputGrad(cols)
			x := randBatch(92, n, in)
			g := randBatch(93, n, 3)

			full.ForwardBatch(x, n)
			want := full.BackwardBatch(g, n)
			part.ForwardBatch(x, n)
			got := part.BackwardBatch(g, n)
			for i := range want {
				w := want[i]
				if i%in < cols {
					w = 0
				}
				if math.Float64bits(got[i]) != math.Float64bits(w) {
					t.Fatalf("cols %d n %d: input grad %d = %v, want %v", cols, n, i, got[i], w)
				}
			}
			pf, pp := full.Params(), part.Params()
			for i := range pf {
				for j := range pf[i].Grad {
					if math.Float64bits(pf[i].Grad[j]) != math.Float64bits(pp[i].Grad[j]) {
						t.Fatalf("cols %d n %d: param %s[%d] grad %v, want %v",
							cols, n, pf[i].Name, j, pp[i].Grad[j], pf[i].Grad[j])
					}
				}
			}
		}
	}
}

// TestBatchForwardZeroAllocs pins the tentpole's steady-state guarantee:
// after a warm-up call sizes the scratch arenas, batched forward and
// forward+backward perform zero allocations, with the first layer
// discarding part of its input gradient.
func TestBatchForwardZeroAllocs(t *testing.T) { batchForwardZeroAllocs(t) }

func batchForwardZeroAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(51))
	m := NewMLP(rng, 40, 64, 32, 2)
	m.DiscardInputGrad(30)
	const n = 64
	x := randBatch(52, n, 40)
	g := randBatch(53, n, 2)

	m.ForwardBatch(x, n)
	m.BackwardBatch(g, n)

	if allocs := testing.AllocsPerRun(50, func() { m.ForwardBatch(x, n) }); allocs != 0 {
		t.Errorf("ForwardBatch allocates %v times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() {
		m.ForwardBatch(x, n)
		m.BackwardBatch(g, n)
	}); allocs != 0 {
		t.Errorf("ForwardBatch+BackwardBatch allocates %v times per op, want 0", allocs)
	}
	// The batch-of-1 wrappers share the same arenas.
	if allocs := testing.AllocsPerRun(50, func() { m.Forward(x[:40]) }); allocs != 0 {
		t.Errorf("single-sample Forward allocates %v times per op, want 0", allocs)
	}
}

// TestBatchSizeChangeReusesArena exercises shrinking and regrowing batches
// through the same network.
func TestBatchSizeChangeReusesArena(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	m := NewMLP(rng, 4, 6, 2)
	for _, n := range []int{8, 1, 5, 8, 3} {
		x := randBatch(int64(70+n), n, 4)
		y := m.ForwardBatch(x, n)
		if len(y) != n*2 {
			t.Fatalf("batch %d: output len %d, want %d", n, len(y), n*2)
		}
		g := make([]float64, n*2)
		gi := m.BackwardBatch(g, n)
		if len(gi) != n*4 {
			t.Fatalf("batch %d: input grad len %d, want %d", n, len(gi), n*4)
		}
	}
}

// TestBackwardBatchMismatchPanics: backward with a different row count than
// the cached forward must panic rather than corrupt gradients.
func TestBackwardBatchMismatchPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(81))
	m := NewMLP(rng, 3, 2)
	m.ForwardBatch(randBatch(82, 4, 3), 4)
	assertPanics(t, func() { m.BackwardBatch(make([]float64, 2*2), 2) })
}

// TestMLPForwardBatchWidthMismatchPanics: a Tanh wider than the Linear
// before it must panic on both forward paths, not read stale column scratch
// (n = 8 after n = 16 leaves room for the wider read).
func TestMLPForwardBatchWidthMismatchPanics(t *testing.T) {
	m := &MLP{Layers: []Layer{NewLinear(3, 5, rand.New(rand.NewSource(111))), NewTanh(6)}}
	for _, n := range []int{1, 16, 8} {
		assertPanics(t, func() { m.ForwardBatch(randBatch(112, n, 3), n) })
	}
}

// TestGaussianVecHelpersMatchScalar ties the vectorized log-prob/grad
// helpers to their scalar counterparts.
func TestGaussianVecHelpersMatchScalar(t *testing.T) {
	a := []float64{0.5, -1.2, 0, 2.4}
	mean := []float64{0.1, -1, 0.3, 2.5}
	const std = 0.7

	lp := make([]float64, len(a))
	GaussianLogProbVec(lp, a, mean, std)
	dm := make([]float64, len(a))
	ds := make([]float64, len(a))
	GaussianLogProbGradVec(dm, ds, a, mean, std)

	for k := range a {
		if want := GaussianLogProb(a[k], mean[k], std); math.Abs(lp[k]-want) > 1e-12 {
			t.Errorf("logprob[%d] = %v, want %v", k, lp[k], want)
		}
		wm, ws := GaussianLogProbGrad(a[k], mean[k], std)
		if math.Abs(dm[k]-wm) > 1e-12 || math.Abs(ds[k]-ws) > 1e-12 {
			t.Errorf("grad[%d] = (%v, %v), want (%v, %v)", k, dm[k], ds[k], wm, ws)
		}
	}
}
