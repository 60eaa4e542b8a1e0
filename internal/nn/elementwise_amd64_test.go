//go:build amd64

package nn

import (
	"encoding/binary"
	"math"
	"math/rand"
	"testing"
)

// The element-wise helpers against their Go oracles, bit for bit and NaN
// payloads included: FastTanh against fastTanh, tanhBack against tanhBackGo,
// Adam.Step and adamStep against adamGo. Every length from 0 to 9 and 64, 65
// runs, so every tail length after the vector prefix does, at every lane
// position of every input; each test runs with AVX and again without.
//
// Payloads can be compared against compiled Go here, whose operand order is
// the compiler's, because no commutative operation meets two NaNs: fastTanh
// returns a NaN input itself, and in Adam's update every product and sum
// that a NaN value or moment enters has a finite other operand, so only the
// division and the subtraction, whose order is fixed, can take two NaNs.
// The tanh backward's product can, and checkTanhBack says how it compares.

// elementwiseLens are the slice lengths of the sweeps: all tails 0–3 after
// vector prefixes of 0, 1, 2 and 16 vectors.
var elementwiseLens = []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64, 65}

// withAndWithoutAVX runs f once on the CPU's kernels and once on the Go
// loops.
func withAndWithoutAVX(t *testing.T, f func(t *testing.T)) {
	t.Run("AVX", func(t *testing.T) {
		if !useAVX {
			t.Skip("CPU or OS without AVX")
		}
		f(t)
	})
	t.Run("noAVX", func(t *testing.T) { WithoutAVX(func() { f(t) }) })
}

// tanhSweepInputs are every table node -tanhMax + j·(2·tanhMax/tanhN) for
// j = 0…tanhN and its neighbours one ulp away, then ±0, ±tanhMax and one ulp
// inside, ±Inf, ±the smallest subnormal, ±1e300, and quiet and signalling
// NaNs of both signs with nonzero payloads.
func tanhSweepInputs() []float64 {
	const dx = 2 * tanhMax / tanhN
	xs := make([]float64, 0, 3*(tanhN+1)+20)
	for j := 0; j <= tanhN; j++ {
		x := -tanhMax + float64(j)*dx
		xs = append(xs, x, math.Nextafter(x, math.Inf(-1)), math.Nextafter(x, math.Inf(1)))
	}
	return append(xs,
		0, math.Copysign(0, -1),
		tanhMax, -tanhMax, math.Nextafter(tanhMax, 0), math.Nextafter(-tanhMax, 0),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1e300, -1e300,
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff8_0000_0000_0bad),
		math.Float64frombits(0x7ff0_0000_0000_0001), math.Float64frombits(0xfff4_0000_cafe_0000))
}

// checkFastTanh runs FastTanh on src, out of place and in place, against
// fastTanh element by element.
func checkFastTanh(t *testing.T, src []float64) {
	t.Helper()
	want := make([]float64, len(src))
	for i, x := range src {
		want[i] = fastTanh(x)
	}
	got := make([]float64, len(src))
	FastTanh(got, src)
	sameBits(t, "FastTanh", got, want, true)
	copy(got, src)
	FastTanh(got, got)
	sameBits(t, "FastTanh in place", got, want, true)
}

func TestFastTanhSweepBitEqual(t *testing.T) {
	xs := tanhSweepInputs()
	withAndWithoutAVX(t, func(t *testing.T) {
		for _, n := range elementwiseLens {
			// Shifting the windows by 0…3 puts each input in every lane.
			for shift := 0; shift < 4; shift++ {
				for at := shift; at+n <= len(xs); at += max(n, 1) {
					checkFastTanh(t, xs[at:at+n])
				}
			}
		}
	})
}

// checkTanhBack runs tanhBack against tanhBackGo. Where both the gradient
// and the output are NaN, any NaN matches any NaN: which payload a product of
// two NaNs keeps is its first operand's, and the compiler picks the operand
// order of tanhBackGo's commutative multiply.
func checkTanhBack(t *testing.T, g, y []float64) {
	t.Helper()
	want := make([]float64, len(g))
	tanhBackGo(want, g, y)
	got := make([]float64, len(g))
	tanhBack(got, g, y)
	for i := range want {
		if math.IsNaN(g[i]) && math.IsNaN(y[i]) {
			got[i], want[i] = math.NaN(), math.NaN()
		}
	}
	sameBits(t, "tanhBack", got, want, true)
}

func TestTanhBackSweepBitEqual(t *testing.T) {
	// Outputs y over the whole range of the activation and beyond, the
	// gradients drawn with one special value in four.
	ys := append(tanhSweepInputs(), specialValues...)
	for i := range ys[:3*(tanhN+1)] {
		ys[i] = fastTanh(ys[i])
	}
	gs := filled(drawer(41), len(ys))
	withAndWithoutAVX(t, func(t *testing.T) {
		for _, n := range elementwiseLens {
			for shift := 0; shift < 4; shift++ {
				for at := shift; at+n <= len(ys); at += max(n, 1) {
					checkTanhBack(t, gs[at:at+n], ys[at:at+n])
				}
			}
		}
	})
}

// adamState is a copy of one parameter's values and moments.
type adamState struct{ p, m, v []float64 }

// adamNet returns parameters of every sweep length, drawn with one special
// value in four, and Adam over them.
func adamNet(seed int64) ([]*Param, *Adam) {
	draw := drawer(seed)
	ps := make([]*Param, len(elementwiseLens))
	for i, n := range elementwiseLens {
		ps[i] = newParam("p", n)
		for j := range ps[i].Value {
			ps[i].Value[j] = draw()
		}
	}
	return ps, NewAdam(ps, 1e-3)
}

// TestAdamStepBitEqual runs five Adam steps, so the bias corrections vary,
// on parameters of every sweep length whose gradients include NaN and ±Inf
// besides finite values of mixed magnitude: every value and moment has the
// bits of the Go loop's step, and every element with a NaN or infinite
// gradient keeps its value and moments bit for bit.
func TestAdamStepBitEqual(t *testing.T) {
	withAndWithoutAVX(t, func(t *testing.T) {
		ps, a := adamNet(42)
		oracle, b := adamNet(42)
		rng := rand.New(rand.NewSource(43))
		nonFinite := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Float64frombits(0xfff0_0000_0000_0001)}
		for step := 0; step < 5; step++ {
			before := make([]adamState, len(ps))
			for i, p := range ps {
				for j := range p.Grad {
					g := rng.NormFloat64() * math.Exp2(float64(rng.Intn(41)-20))
					if rng.Intn(4) == 0 {
						g = nonFinite[rng.Intn(len(nonFinite))]
					}
					p.Grad[j], oracle[i].Grad[j] = g, g
				}
				before[i] = adamState{
					append([]float64(nil), p.Value...),
					append([]float64(nil), a.m[i]...),
					append([]float64(nil), a.v[i]...),
				}
			}
			a.Step()
			WithoutAVX(b.Step)
			for i, p := range ps {
				sameBits(t, "Adam.Step value", p.Value, oracle[i].Value, true)
				sameBits(t, "Adam.Step m", a.m[i], b.m[i], true)
				sameBits(t, "Adam.Step v", a.v[i], b.v[i], true)
				for j, g := range p.Grad {
					if !math.IsNaN(g) && !math.IsInf(g, 0) {
						continue
					}
					s := before[i]
					sameBits(t, "skipped value", p.Value[j:j+1], s.p[j:j+1], true)
					sameBits(t, "skipped m", a.m[i][j:j+1], s.m[j:j+1], true)
					sameBits(t, "skipped v", a.v[i][j:j+1], s.v[j:j+1], true)
				}
			}
		}
	})
}

// adamConstants are Adam.Step's constants at step t with the defaults of
// NewAdam.
func adamConstants(t int) *[8]float64 {
	const b1, b2 = 0.9, 0.999
	bc1 := 1 / (1 - math.Pow(b1, float64(t)))
	bc2 := 1 / (1 - math.Pow(b2, float64(t)))
	return &[8]float64{b1, 1 - b1, b2, 1 - b2, bc1, bc2, 1e-3, 1e-8}
}

// checkAdam runs adamStep against adamGo on copies of the same state.
func checkAdam(t *testing.T, p, g, m, v []float64, k *[8]float64) {
	t.Helper()
	gp, gm, gv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
	wp, wm, wv := append([]float64(nil), p...), append([]float64(nil), m...), append([]float64(nil), v...)
	adamStep(gp, g, gm, gv, k)
	adamGo(wp, g, wm, wv, k)
	sameBits(t, "adamStep value", gp, wp, true)
	sameBits(t, "adamStep m", gm, wm, true)
	sameBits(t, "adamStep v", gv, wv, true)
}

// FuzzElementwiseKernels checks the three helpers against their Go oracles
// bit for bit on float64s decoded from the input, eight little-endian bytes
// each: FastTanh on all of them, in and out of place; tanhBack with the
// first half as gradients and the second as outputs; adamStep with the four
// quarters as values, gradients and moments, at a step count taken from the
// first byte. Lengths, and so tail lengths, follow the input's.
func FuzzElementwiseKernels(f *testing.F) {
	enc := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	specials := []float64{
		0, math.Copysign(0, -1), tanhMax, -tanhMax, math.Nextafter(tanhMax, 0), math.Nextafter(-tanhMax, 0),
		math.Inf(1), math.Inf(-1), 5e-324, -5e-324, 1e300, -1e300,
		math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0x7ff0_0000_0000_0001),
		-tanhMax + 2*tanhMax/tanhN, math.Nextafter(-tanhMax+2*tanhMax/tanhN, 0),
	}
	f.Add(enc(specials...))
	f.Add(enc(specials[:5]...))
	f.Add(enc(append(specials, specials...)...))
	f.Add(enc(0.5, -0.25, 3, 1e-3, 0.1, 0.2, 0.3, 0.4, 0.9, -0.9, 1e-6, 2))
	// Gradients then outputs: a NaN gradient against a NaN output of another
	// payload and against a finite one, a finite gradient against a NaN.
	qa, qb := math.Float64frombits(0x7ff8_0000_0000_00aa), math.Float64frombits(0xfff8_0000_0000_00bb)
	f.Add(enc(qa, qa, 1, -0.5, qb, 0.5, qb, 0.25))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		xs := make([]float64, len(data)/8)
		for i := range xs {
			xs[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		checkFastTanh(t, xs)
		h := len(xs) / 2
		checkTanhBack(t, xs[:h], xs[h:2*h])
		q := len(xs) / 4
		step := 1
		if len(data) > 0 {
			step += int(data[0] % 32)
		}
		checkAdam(t, xs[:q], xs[q:2*q], xs[2*q:3*q], xs[3*q:4*q], adamConstants(step))
	})
}

// TestElementwiseZeroAllocs pins the layers and the optimizer that run the
// element-wise kernels to zero allocations per call: Adam.Step's constants
// stay on its stack.
func TestElementwiseZeroAllocs(t *testing.T) {
	ps, a := adamNet(44)
	for _, p := range ps {
		copy(p.Grad, p.Value)
	}
	if allocs := testing.AllocsPerRun(50, a.Step); allocs != 0 {
		t.Errorf("Adam.Step allocates %v times per op, want 0", allocs)
	}
	const n, size = 64, 32
	layer := NewTanh(size)
	x, g := randBatch(45, n, size), randBatch(46, n, size)
	layer.ForwardBatch(x, n)
	layer.BackwardBatch(g, n)
	if allocs := testing.AllocsPerRun(50, func() { layer.ForwardBatch(x, n) }); allocs != 0 {
		t.Errorf("Tanh.ForwardBatch allocates %v times per op, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { layer.BackwardBatch(g, n) }); allocs != 0 {
		t.Errorf("Tanh.BackwardBatch allocates %v times per op, want 0", allocs)
	}
}
