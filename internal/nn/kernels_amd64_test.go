//go:build amd64

package nn

import (
	"math"
	"math/rand"
	"testing"
)

// The tests below are the whole case for selecting kernels by CPU, for the
// fused n = 1 forward and for the batched forwards' use of its sums row by
// row and in column blocks, with no tolerance mode: over every shape that
// exercises a block, tail or mask combination, at slice offsets that break
// 16- and 32-byte alignment, on values that include signed zeros,
// denormals, infinities and NaNs, each fast kernel leaves the bits of the
// kernel or Go loop it stands in for.

// drawer returns a generator of finite values of mixed magnitude with, one
// time in four, a special value.
func drawer(seed int64) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		if rng.Intn(4) == 0 {
			return specialValues[rng.Intn(len(specialValues))]
		}
		return rng.NormFloat64() * math.Exp2(float64(rng.Intn(41)-20))
	}
}

func filled(draw func() float64, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = draw()
	}
	return v
}

// sameBits compares two results element by element. Asm kernels must agree
// on NaN payloads too (strict); against compiled Go, whose operand order is
// the compiler's, any NaN matches any NaN.
func sameBits(t *testing.T, label string, got, want []float64, strict bool) {
	t.Helper()
	for i := range want {
		gb, wb := math.Float64bits(got[i]), math.Float64bits(want[i])
		if gb != wb && (strict || !(math.IsNaN(got[i]) && math.IsNaN(want[i]))) {
			t.Fatalf("%s element %d: %016x (%v), want %016x (%v)", label, i, gb, got[i], wb, want[i])
		}
	}
}

// withoutAVX runs f on the SSE2 kernels.
func withoutAVX(f func()) {
	defer func(v bool) { useAVX = v }(useAVX)
	useAVX = false
	f()
}

// axpyRowsScalar is axpyRows in plain Go; the conversions forbid fusing a
// product into the add that follows it.
func axpyRowsScalar(dst, a []float64, aStride int, g []float64, gStride, rows int) {
	for r := 0; r < rows; r++ {
		for i := range dst {
			dst[i] += float64(a[r*aStride+i] * g[r*gStride])
		}
	}
}

func TestAxpyRowsKernelsBitEqual(t *testing.T) {
	if !useAVX {
		t.Skip("CPU or OS without AVX: axpyRows runs the SSE2 kernel only, nothing to compare")
	}
	draw := drawer(1)
	const maxLen, maxOff = 67, 4
	for m := 0; m <= maxLen; m++ {
		for _, rows := range []int{0, 1, 2, 3, 4, 5, 8, 11} {
			off := (m + rows) % maxOff
			aStride, gStride := m+(m+rows)%3, 1+rows%3
			dst := filled(draw, maxLen+2*maxOff)
			a := filled(draw, rows*aStride+m+maxOff)
			g := filled(draw, rows*gStride+maxOff)
			aOff, gOff := (off+1)%maxOff, (off+2)%maxOff

			avx := append([]float64(nil), dst...)
			axpyRows(avx[off:off+m], a[aOff:], aStride, g[gOff:], gStride, rows)
			sse := append([]float64(nil), dst...)
			withoutAVX(func() { axpyRows(sse[off:off+m], a[aOff:], aStride, g[gOff:], gStride, rows) })
			axpyRowsScalar(dst[off:off+m], a[aOff:], aStride, g[gOff:], gStride, rows)

			// The SSE2 path's last rows mod 4 are a Go loop.
			sameBits(t, "AVX vs SSE2", avx, sse, rows%4 == 0)
			sameBits(t, "AVX vs scalar", avx, dst, false)
		}
	}
}

func TestLinearForwardKernelsBitEqual(t *testing.T) {
	draw := drawer(2)
	const maxOff = 4
	for _, in := range []int{1, 2, 3, 5, 16, 46, 64} {
		for _, out := range []int{1, 2, 3, 4, 5, 9, 32} {
			for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 15, 16, 17, 23, 64, 65} {
				off := (in + out + n) % maxOff
				w := filled(draw, in*out+maxOff)[off:]
				b := filled(draw, out+maxOff)[(off+1)%maxOff:]
				x := filled(draw, n*in+maxOff)[(off+2)%maxOff:]

				// The oracle: linearRow1, the one sum order in Go, on each
				// row by itself.
				want := make([]float64, n*out)
				for r := 0; r < n; r++ {
					linearRow1(w, b, x[r*in:], want[r*out:], in, out)
				}
				rows := make([]float64, n*out+maxOff)[(off+3)%maxOff:]
				linearRows(w, b, x, rows, n, in, out)
				sameBits(t, "linearRows", rows[:n*out], want, false)

				// The column path: the same sums over column-major scratch
				// whose padding rows hold other values, bit for bit the
				// row path's, NaN payloads included.
				if !useAVX || n < colRows {
					continue
				}
				ld := (n + colRows - 1) / colRows * colRows
				xt := filled(draw, in*ld+maxOff)[(off+1)%maxOff:]
				yt := make([]float64, out*ld+maxOff)[(off+2)%maxOff:]
				for r := 0; r < n; r++ {
					for i := 0; i < in; i++ {
						xt[i*ld+r] = x[r*in+i]
					}
				}
				linearCols(w, b, xt, yt, in, out, ld)
				got := make([]float64, n*out)
				for r := 0; r < n; r++ {
					for o := 0; o < out; o++ {
						got[r*out+o] = yt[o*ld+r]
					}
				}
				sameBits(t, "linearCols", got, rows[:n*out], true)
			}
		}
	}
}

// TestEvaluatorForwardBatchBitIdenticalWithoutAVX pins the serving forward
// of a CPU without AVX, which runs linearRows at every batch size.
func TestEvaluatorForwardBatchBitIdenticalWithoutAVX(t *testing.T) {
	withoutAVX(func() { forwardBatchBitIdentical(t) })
}

// TestForwardBatchMatchesSingleWithoutAVX pins the training forward of a
// CPU without AVX, which runs linearRows at every batch size.
func TestForwardBatchMatchesSingleWithoutAVX(t *testing.T) {
	withoutAVX(func() { forwardBatchMatchesSingle(t) })
}
