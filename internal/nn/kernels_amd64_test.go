//go:build amd64

package nn

import (
	"encoding/binary"
	"fmt"
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
func drawer(seed int64) func() float64 { return drawerOneIn(seed, 4) }

// drawerOneIn is drawer with a special value one time in oneIn: long sums
// of drawer's values are nearly always NaN, and a rarer special value keeps
// finite results in the comparison.
func drawerOneIn(seed int64, oneIn int) func() float64 {
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		if rng.Intn(oneIn) == 0 {
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
			WithoutAVX(func() { axpyRows(sse[off:off+m], a[aOff:], aStride, g[gOff:], gStride, rows) })
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
	WithoutAVX(func() { forwardBatchBitIdentical(t) })
}

// TestForwardBatchMatchesSingleWithoutAVX pins the training forward of a
// CPU without AVX, which runs linearRows at every batch size.
func TestForwardBatchMatchesSingleWithoutAVX(t *testing.T) {
	WithoutAVX(func() { forwardBatchMatchesSingle(t) })
}

// TestColumnTransposes pins toCols and fromCols, whose full four-by-four
// blocks run transpose4AVX, to their definitions: xt[i*ld+r] = x[r*dim+i]
// with the padding rows zeroed over stale scratch, and back on the live
// rows, NaN payloads included. Widths cover no full block, blocks with and
// without a column tail; row counts full row blocks with and without a row
// tail; slices start at offsets that break 32-byte alignment; and a
// sentinel after each destination must survive.
func TestColumnTransposes(t *testing.T) {
	if !useAVX {
		t.Skip("the column path runs only with AVX")
	}
	sentinel := math.Float64frombits(0x7ff8_0000_5e17_0000)
	draw := drawer(121)
	for _, dim := range []int{1, 3, 4, 5, 8, 16, 28, 33, 64} {
		for _, n := range []int{1, 3, 4, 5, 8, 11, 16} {
			for off := 0; off < 3; off++ {
				ld := (n + colRows - 1) / colRows * colRows
				x := make([]float64, off+n*dim)[off:]
				for i := range x {
					x[i] = draw()
				}
				xt := make([]float64, off+dim*ld+1)[off:]
				for i := range xt {
					xt[i] = sentinel // stale scratch; the padding must be zeroed
				}
				toCols(xt[:dim*ld], x, n, dim, ld)
				want := make([]float64, dim*ld+1)
				want[dim*ld] = sentinel
				for r := 0; r < n; r++ {
					for i := 0; i < dim; i++ {
						want[i*ld+r] = x[r*dim+i]
					}
				}
				label := fmt.Sprintf("toCols dim %d n %d off %d", dim, n, off)
				sameBits(t, label, xt, want, true)

				y := make([]float64, off+n*dim+1)[off:]
				y[n*dim] = sentinel
				fromCols(y[:n*dim], xt, n, dim, ld)
				sameBits(t, "fromCols "+label[7:], y, append(x[:n*dim:n*dim], sentinel), true)
			}
		}
	}
}

// checkLinearRow1 runs the n = 1 forward, linearRows, against linearRow1Asm
// over all out outputs, and linearRow1AVX alone on the first out &^ 15 of
// them, which must write nothing past its last output.
func checkLinearRow1(t *testing.T, w, b, x []float64, in, out int) {
	t.Helper()
	_, _, _ = w[in*out-1], b[out-1], x[in-1]
	want := make([]float64, out)
	linearRow1Asm(&w[0], &b[0], &x[0], &want[0], in, out)
	got := make([]float64, out)
	linearRows(w, b, x[:in], got, 1, in, out)
	sameBits(t, "linearRows", got, want, true)
	wide := out &^ 15
	if !useAVX || wide == 0 {
		return
	}
	sentinel := math.Float64frombits(0x7ff8_0000_5e17_0000)
	got = make([]float64, out+1)
	for o := wide; o <= out; o++ {
		got[o] = sentinel
	}
	linearRow1AVX(&w[0], &b[0], &x[0], &got[0], in, wide)
	sameBits(t, "linearRow1AVX", got[:wide], want[:wide], true)
	for o := wide; o <= out; o++ {
		if math.Float64bits(got[o]) != math.Float64bits(sentinel) {
			t.Fatalf("linearRow1AVX in %d out %d wrote output %d", in, wide, o)
		}
	}
}

// TestLinearRow1KernelsBitEqual pins the n = 1 forward with AVX to
// linearRow1Asm, NaN payloads included: one to four passes of sixteen
// outputs, each out mod 16 tail after them, even and odd input counts,
// misaligned slices, and inputs with a special value one time in four and
// one time in 64.
func TestLinearRow1KernelsBitEqual(t *testing.T) {
	const maxOff = 4
	for _, oneIn := range []int{4, 64} {
		draw := drawerOneIn(int64(3+oneIn), oneIn)
		for _, in := range []int{1, 2, 3, 5, 16, 46, 64} {
			for _, out := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 17, 24, 31, 32, 33, 48, 64} {
				off := (in + out + oneIn) % maxOff
				w := filled(draw, in*out+maxOff)[off:]
				b := filled(draw, out+maxOff)[(off+1)%maxOff:]
				x := filled(draw, in+maxOff)[(off+2)%maxOff:]
				checkLinearRow1(t, w, b, x, in, out)
			}
		}
	}
}

// checkAxpyRows4 runs axpyRows4 against four axpyRows calls, one per
// destination, on copies of dst; every element of dst is compared, so the
// gaps between the destinations must come back untouched.
func checkAxpyRows4(t *testing.T, dst []float64, dStride, m int, a []float64, aStride int, sc []float64, scStride, scLane, rows int) {
	t.Helper()
	want := append([]float64(nil), dst...)
	for k := 0; k < 4; k++ {
		axpyRows(want[k*dStride:k*dStride+m], a, aStride, sc[k*scLane:], scStride, rows)
	}
	got := append([]float64(nil), dst...)
	axpyRows4(got, dStride, m, a, aStride, sc, scStride, scLane, rows)
	sameBits(t, "axpyRows4", got, want, true)
}

// TestAxpyRows4BitEqual pins axpyRows4 to axpyRows per destination, NaN
// payloads included, in the weight-gradient layout (a scalar stride of the
// layer's outputs, neighbouring destinations' scalars side by side) and the
// input-gradient layout (the scalars of a row side by side, destinations a
// row of scalars apart), at every tail length after two-vector passes,
// with destinations packed and spaced, on misaligned slices.
func TestAxpyRows4BitEqual(t *testing.T) {
	if !useAVX {
		t.Skip("CPU or OS without AVX: axpyRows4 never runs")
	}
	draw := drawer(5)
	const maxOff = 4
	for _, m := range []int{1, 2, 3, 4, 5, 6, 7, 8, 9, 16, 46, 64} {
		for _, rows := range []int{1, 2, 3, 4, 5, 64} {
			for layout := 0; layout < 2; layout++ {
				off, pad := (m+rows+layout)%maxOff, (m+rows)%3
				dStride, aStride := m+pad, m+(m+layout)%2
				scStride, scLane := 4+pad, 1 // weight gradients
				if layout == 1 {
					scStride, scLane = 1, rows+pad // input gradients
				}
				dst := filled(draw, 3*dStride+m+maxOff)[off:]
				a := filled(draw, (rows-1)*aStride+m+maxOff)[(off+1)%maxOff:]
				sc := filled(draw, (rows-1)*scStride+3*scLane+1+maxOff)[(off+2)%maxOff:]
				checkAxpyRows4(t, dst, dStride, m, a, aStride, sc, scStride, scLane, rows)
			}
		}
	}
}

// backwardOneByOne is Linear.BackwardBatch as it was before axpyRows4:
// the bias sums output by output, one axpyRows call per weight row and one
// per batch row of the input gradient.
func backwardOneByOne(l *Linear, gradOut []float64, n int) []float64 {
	in, out := l.In, l.Out
	for o := 0; o < out; o++ {
		r := 0
		for ; r+3 < n; r += 4 {
			l.B.Grad[o] += gradOut[(r+0)*out+o] + gradOut[(r+1)*out+o] + gradOut[(r+2)*out+o] + gradOut[(r+3)*out+o]
		}
		for ; r < n; r++ {
			l.B.Grad[o] += gradOut[r*out+o]
		}
	}
	for o := 0; o < out; o++ {
		axpyRows(l.W.Grad[o*in:(o+1)*in], l.lastIn, in, gradOut[o:], out, n)
	}
	gradIn := make([]float64, n*in)
	for r := 0; r < n && l.GradInFrom < in; r++ {
		axpyRows(gradIn[r*in+l.GradInFrom:(r+1)*in], l.W.Value[l.GradInFrom:], in, gradOut[r*out:(r+1)*out], 1, out)
	}
	return gradIn
}

// TestLinearBackwardBatchBitEqual pins Linear.BackwardBatch with AVX to the
// one-destination-at-a-time backward and to the SSE2 kernels, with
// discarded input-gradient columns, on accumulated gradients, weights and
// inputs that mix in special values. Weight and input gradients are
// compared with NaN payloads; so is every gradient against the SSE2 path
// where its rows come in blocks of four, since the SSE2 path runs a
// leftover row in compiled Go. The bias sums are compiled Go on both sides
// of the first comparison, each in its own function, so there any NaN
// matches any NaN.
func TestLinearBackwardBatchBitEqual(t *testing.T) {
	if !useAVX {
		t.Skip("CPU or OS without AVX: the backward runs the SSE2 kernels only")
	}
	draw := drawerOneIn(6, 32)
	shapes := []struct{ in, out, from int }{
		{46, 64, 30}, {64, 32, 0}, {32, 1, 0}, {3, 16, 0}, {7, 5, 2}, {9, 13, 8}, {5, 8, 5}, {6, 4, 0},
	}
	for _, c := range shapes {
		for _, n := range []int{1, 2, 3, 4, 5, 8, 9, 64} {
			layers := make([]*Linear, 3)
			for i := range layers {
				l := NewLinear(c.in, c.out, rand.New(rand.NewSource(7)))
				l.GradInFrom = c.from
				layers[i] = l
			}
			w, b := filled(draw, c.in*c.out), filled(draw, c.out)
			wg, bg := filled(draw, c.in*c.out), filled(draw, c.out)
			for _, l := range layers {
				copy(l.W.Value, w)
				copy(l.B.Value, b)
				copy(l.W.Grad, wg)
				copy(l.B.Grad, bg)
			}
			x, g := filled(draw, n*c.in), filled(draw, n*c.out)
			label := func(what string) string {
				return fmt.Sprintf("%d→%d from %d n %d: %s", c.in, c.out, c.from, n, what)
			}

			avx, ref, sse := layers[0], layers[1], layers[2]
			avx.ForwardBatch(x, n)
			gotIn := append([]float64(nil), avx.BackwardBatch(g, n)...)
			ref.ForwardBatch(x, n)
			refIn := backwardOneByOne(ref, g, n)
			sameBits(t, label("input grad vs one by one"), gotIn, refIn, true)
			sameBits(t, label("weight grad vs one by one"), avx.W.Grad, ref.W.Grad, true)
			sameBits(t, label("bias grad vs one by one"), avx.B.Grad, ref.B.Grad, false)

			var sseIn []float64
			WithoutAVX(func() {
				sse.ForwardBatch(x, n)
				sseIn = append([]float64(nil), sse.BackwardBatch(g, n)...)
			})
			sameBits(t, label("input grad vs SSE2"), gotIn, sseIn, c.out%4 == 0)
			sameBits(t, label("weight grad vs SSE2"), avx.W.Grad, sse.W.Grad, n%4 == 0)
			sameBits(t, label("bias grad vs SSE2"), avx.B.Grad, sse.B.Grad, true)
		}
	}
}

// TestBatchForwardZeroAllocsWithoutAVX and TestEvaluatorAllocFreeWithoutAVX
// pin the SSE2 kernels' paths to zero allocations too.
func TestBatchForwardZeroAllocsWithoutAVX(t *testing.T) {
	WithoutAVX(func() { batchForwardZeroAllocs(t) })
}

func TestEvaluatorAllocFreeWithoutAVX(t *testing.T) {
	WithoutAVX(func() { evaluatorAllocFree(t) })
}

// linearFuzzShape packs FuzzLinearKernels' shape argument: the layer's in
// and out widths and the row count (each 1…64), the axpyRows4 layout (0
// weight gradients, 1 input gradients), the slices' misalignment (0…3
// elements) and the destinations' padding (0…3).
func linearFuzzShape(in, out, rows, layout, off, pad int) uint32 {
	return uint32(in-1) | uint32(out-1)<<6 | uint32(rows-1)<<12 | uint32(layout)<<18 | uint32(off)<<19 | uint32(pad)<<21
}

// FuzzLinearKernels checks the two load-sharing kernels bit for bit, NaN
// payloads included, on float64s decoded from the input, eight
// little-endian bytes each, over shapes decoded from shape
// (linearFuzzShape): the n = 1 forward with AVX against linearRow1Asm
// (checkLinearRow1), and axpyRows4 against four axpyRows calls in the
// layout shape picks (checkAxpyRows4), m the layer's in. The decoded values
// fill the weights, biases, input, destinations, rows and scalars in that
// order; what the input does not cover is drawn from a generator seeded by
// shape. FuzzEvaluatorForwardBatch cannot stand in for it below four rows:
// there its oracle, MLP.Forward, runs the same kernel.
func FuzzLinearKernels(f *testing.F) {
	enc := func(xs ...float64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	qa, qb := math.Float64frombits(0x7ff8_0000_0000_00aa), math.Float64frombits(0xfff8_0000_0000_00bb)
	f.Add(linearFuzzShape(46, 64, 64, 0, 1, 0), enc(specialValues...))
	f.Add(linearFuzzShape(16, 64, 64, 1, 2, 0), []byte{})
	f.Add(linearFuzzShape(3, 16, 5, 1, 3, 1), enc(qa, qb, qa, qb, 1, -1, qb, qa))
	f.Add(linearFuzzShape(33, 9, 3, 0, 0, 3), enc(0, math.Copysign(0, -1), 5e-324, math.Inf(1), math.Inf(-1)))
	f.Add(linearFuzzShape(1, 4, 1, 0, 0, 0), enc(qa, qb, 2, 3, 4, 5, 6, 7, 8))
	f.Add(linearFuzzShape(64, 32, 2, 1, 1, 2), enc(1e300, 1e300, -1e300, 0x1p-1040))

	f.Fuzz(func(t *testing.T, shape uint32, data []byte) {
		if !useAVX {
			t.Skip("CPU or OS without AVX: the load-sharing kernels never run")
		}
		in, out, rows := 1+int(shape&63), 1+int(shape>>6&63), 1+int(shape>>12&63)
		layout, off, pad := int(shape>>18&1), int(shape>>19&3), int(shape>>21&3)
		rng := rand.New(rand.NewSource(int64(shape)))
		fill := func(n int) []float64 {
			v := make([]float64, n+off)[off:]
			for i := range v {
				if len(data) >= 8 {
					v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
					data = data[8:]
				} else {
					v[i] = rng.NormFloat64()
				}
			}
			return v
		}
		w, b, x := fill(in*out), fill(out), fill(in)
		checkLinearRow1(t, w, b, x, in, out)

		m, dStride := in, in+pad
		scStride, scLane := out, 1 // weight gradients
		if layout == 1 {
			scStride, scLane = 1, rows+pad // input gradients
		}
		dst := fill(3*dStride + m)
		a := fill((rows-1)*dStride + m)
		sc := fill((rows-1)*scStride + 3*scLane + 1)
		checkAxpyRows4(t, dst, dStride, m, a, dStride, sc, scStride, scLane, rows)
	})
}
