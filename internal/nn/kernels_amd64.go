//go:build amd64

package nn

// Microkernel declarations; implementations in kernels_amd64.s. SSE2 is part
// of the amd64 baseline, so those kernels need no feature detection; the AVX
// kernels are selected by a CPUID probe at init.

//go:noescape
func dotRowBatchAsm(w, x, y *float64, n, in, out, o int, bias float64)

//go:noescape
func dotRowBatch8AVX(w, x, y *float64, blocks, in, out, o int, bias float64)

//go:noescape
func linearRow1Asm(w, b, x, y *float64, in, out int)

//go:noescape
func axpy4Asm(dst, a0, a1, a2, a3 *float64, g0, g1, g2, g3 float64, m int)

//go:noescape
func axpyRowsAVX(dst *float64, m int, a *float64, aStride int, sc *float64, scStride int, rows int)

//go:noescape
func addToAsm(dst, src *float64, n int)

// cpuHasAVX reports whether the CPU and the OS support the AVX instructions
// of dotRowBatch8AVX and axpyRowsAVX.
func cpuHasAVX() bool

// useAVX selects the AVX kernels over their SSE2 counterparts. Each pair
// produces identical bits for every input (pinned by the tests in
// kernels_amd64_test.go), so the choice shows in speed only.
var useAVX bool

// dotRowBatch computes y[r*out+o] = bias + dot(w, x[r*in:(r+1)*in]) for
// every batch row r.
func dotRowBatch(w, x, y []float64, n, in, out, o int, bias float64) {
	dotRowBatchAsm(&w[0], &x[0], &y[0], n, in, out, o, bias)
}

// linearBatchSame computes one full Linear layer over n batch rows
// (y[r*out+o] = b[o] + dot(w[o*in:], x[r*in:])) with the guarantee that
// every row is accumulated in the exact floating-point order of the n=1
// path, so batched evaluation is bit-identical to per-sample evaluation.
// The SSE2 kernel above cannot make that promise: its 4-row blocks sum two
// interleaved lanes and fold them at the end, which rounds differently from
// the scalar tail it uses for n=1.
//
// Loop order is row-block-outer / output-neuron-inner: an 8-row block of
// input activations (a few KB) stays cache-resident while every weight row
// streams through it exactly once per block. The transposed order (one
// output neuron across all n rows) re-streams the whole n-row activation
// block once per output neuron — out/8 times the memory traffic, which at
// serving batch sizes puts the kernel memory-bound instead of
// throughput-bound. The 8 rows give eight independent dependency chains;
// each row is still accumulated scalar-sequentially from zero with the
// bias added last — the same order as the SSE2 kernel's scalar tail — so
// the blocking and the loop order change throughput, never rounding.
func linearBatchSame(w, b, x, y []float64, n, in, out int) {
	r := 0
	for ; r+7 < n; r += 8 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		x4 := x[(r+4)*in : (r+5)*in]
		x5 := x[(r+5)*in : (r+6)*in]
		x6 := x[(r+6)*in : (r+7)*in]
		x7 := x[(r+7)*in : (r+8)*in]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var s0, s1, s2, s3, s4, s5, s6, s7 float64
			for i, wi := range wo {
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
				s4 += wi * x4[i]
				s5 += wi * x5[i]
				s6 += wi * x6[i]
				s7 += wi * x7[i]
			}
			bias := b[o]
			y[(r+0)*out+o] = s0 + bias
			y[(r+1)*out+o] = s1 + bias
			y[(r+2)*out+o] = s2 + bias
			y[(r+3)*out+o] = s3 + bias
			y[(r+4)*out+o] = s4 + bias
			y[(r+5)*out+o] = s5 + bias
			y[(r+6)*out+o] = s6 + bias
			y[(r+7)*out+o] = s7 + bias
		}
	}
	for ; r+3 < n; r += 4 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var s0, s1, s2, s3 float64
			for i, wi := range wo {
				s0 += wi * x0[i]
				s1 += wi * x1[i]
				s2 += wi * x2[i]
				s3 += wi * x3[i]
			}
			bias := b[o]
			y[(r+0)*out+o] = s0 + bias
			y[(r+1)*out+o] = s1 + bias
			y[(r+2)*out+o] = s2 + bias
			y[(r+3)*out+o] = s3 + bias
		}
	}
	for ; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		for o := 0; o < out; o++ {
			wo := w[o*in : (o+1)*in]
			var sum float64
			for i, wi := range wo {
				sum += wi * xr[i]
			}
			y[r*out+o] = sum + b[o]
		}
	}
}

// linearForward computes one full Linear layer over n batch rows, every
// element exactly as dotRowBatch over each output unit in turn would: rows
// in the leading blocks of four through that kernel's two interleaved lanes,
// the last n mod 4 rows (the only row at n = 1) as plain sums in index
// order. It only spends fewer instructions on it: one pass of four
// interleaved output chains when n is 1, eight batch rows per AVX pass when
// there are that many.
func linearForward(w, b, x, y []float64, n, in, out int) {
	// The kernels take bare pointers: fail here on a short slice.
	_, _, _, _ = w[in*out-1], b[out-1], x[n*in-1], y[n*out-1]
	if n == 1 {
		linearRow1Asm(&w[0], &b[0], &x[0], &y[0], in, out)
		return
	}
	blocks := 0
	if useAVX {
		blocks = n / 8
	}
	rest := n - 8*blocks
	for o := 0; o < out; o++ {
		wo := &w[o*in]
		if blocks > 0 {
			dotRowBatch8AVX(wo, &x[0], &y[0], blocks, in, out, o, b[o])
		}
		if rest > 0 {
			dotRowBatchAsm(wo, &x[8*blocks*in], &y[8*blocks*out], rest, in, out, o, b[o])
		}
	}
}

// axpyRows accumulates rows scaled rows into dst, one after the other:
// dst[i] += a[row*aStride+i] * g[row*gStride] for row = 0 … rows-1, each
// product and each sum rounded on its own. It is both halves of a Linear
// layer's backward pass: a weight-gradient row gathers the batch's inputs
// scaled by that output's gradients, an input-gradient row gathers the
// weight rows scaled by that sample's output gradients.
func axpyRows(dst, a []float64, aStride int, g []float64, gStride, rows int) {
	m := len(dst)
	if m == 0 || rows == 0 {
		return
	}
	_, _ = a[(rows-1)*aStride+m-1], g[(rows-1)*gStride]
	if useAVX {
		axpyRowsAVX(&dst[0], m, &a[0], aStride, &g[0], gStride, rows)
		return
	}
	r := 0
	for ; r+3 < rows; r += 4 {
		axpy4Asm(&dst[0], &a[(r+0)*aStride], &a[(r+1)*aStride], &a[(r+2)*aStride], &a[(r+3)*aStride],
			g[(r+0)*gStride], g[(r+1)*gStride], g[(r+2)*gStride], g[(r+3)*gStride], m)
	}
	for ; r < rows; r++ {
		gr, ar := g[r*gStride], a[r*aStride:r*aStride+m]
		for i := range dst {
			dst[i] += gr * ar[i]
		}
	}
}

// addTo accumulates src into dst element-wise (dst[i] += src[i]), the
// gradient-reduction kernel of the data-parallel PPO update. The slices
// must have equal length (the asm iterates len(dst) over both bases).
func addTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("nn: addTo length mismatch")
	}
	if len(dst) == 0 {
		return
	}
	addToAsm(&dst[0], &src[0], len(dst))
}

// The probe runs from a function at the end of the file, not from useAVX's
// initializer: code added to the package's init function moves every
// function linked after it, and the speed of linearBatchSame's scalar loops
// — a sixth of a serve-sparse decision — depends on which half of a 64-byte
// line the function starts in (CHANGES.md, PR 17).
func init() { useAVX = cpuHasAVX() }
