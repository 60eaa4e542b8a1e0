//go:build amd64

package nn

// Microkernel declarations; implementations in kernels_amd64.s. SSE2 is part
// of the amd64 baseline, so those kernels need no feature detection; the AVX
// kernels are selected by a CPUID probe at init.

//go:noescape
func linearRow1Asm(w, b, x, y *float64, in, out int)

//go:noescape
func linearRow1AVX(w, b, x, y *float64, in, out int)

//go:noescape
func linearColsAVX(w, b, xt, yt *float64, in, out, ld int)

//go:noescape
func transpose4AVX(dst *float64, dLine, dBlock int, src *float64, sLine, sBlock, blocks int)

//go:noescape
func axpy4Asm(dst, a0, a1, a2, a3 *float64, g0, g1, g2, g3 float64, m int)

//go:noescape
func axpyRowsAVX(dst *float64, m int, a *float64, aStride int, sc *float64, scStride int, rows int)

//go:noescape
func axpyRows4AVX(dst *float64, dStride, m int, a *float64, aStride int, sc *float64, scStride, scLane, rows int)

//go:noescape
func addToAsm(dst, src *float64, n int)

// The element-wise kernels behind FastTanh, tanhBack and adamStep: each
// takes a multiple of 4 elements, and the helpers run the rest in Go.

//go:noescape
func tanhAVX(dst, src *float64, n int)

//go:noescape
func tanhBackAVX(dst, grad, y *float64, n int)

//go:noescape
func adamAVX(p, grad, m, v *float64, n int, k *[8]float64)

// cpuHasAVX reports whether the CPU and the OS support the AVX instructions
// of the AVX kernels.
func cpuHasAVX() bool

// useAVX selects the AVX kernels over the SSE2 ones and the Go loops:
// linearRow1AVX for the n = 1 forward's first out &^ 15 outputs,
// axpyRowsAVX over its SSE2 counterpart and axpyRows4AVX for the backward's
// blocks of four destinations, the column path (linearCols) of
// Linear.ForwardBatch and Evaluator.ForwardBatch over linearRows, and the
// element-wise kernels over their Go loops. Each pair produces identical
// bits for every input (pinned by the tests in kernels_amd64_test.go and
// elementwise_amd64_test.go), so the choice shows in speed only.
var useAVX = cpuHasAVX()

// WithoutAVX runs f with useAVX cleared: the SSE2 kernels and the Go loops
// in place of the AVX ones. Tests here and in the packages above use it to
// pin a result to the same bits on both paths; nothing else may evaluate a
// network while it runs.
func WithoutAVX(f func()) {
	defer func(v bool) { useAVX = v }(useAVX)
	useAVX = false
	f()
}

// linearRows computes one full Linear layer over n row-major batch rows by
// running the n = 1 forward on each row: each (row, output) summed from zero
// in index order, the bias added last. No row's bits depend on n or on the
// rows beside it, which is what lets serving batch requests freely and
// gives every row of a training batch the bits of MLP.Forward on that row.
// It is the forward for batches too small for linearCols' row block, and on
// CPUs without AVX. With AVX, linearRow1AVX computes the outputs in blocks
// of sixteen and linearRow1Asm the out mod 16 left, with the same sums.
func linearRows(w, b, x, y []float64, n, in, out int) {
	// The kernels take bare pointers: fail here on a short slice.
	_, _, _, _ = w[in*out-1], b[out-1], x[n*in-1], y[n*out-1]
	wide := 0
	if useAVX {
		wide = out &^ 15
	}
	for r := 0; r < n; r++ {
		if wide > 0 {
			linearRow1AVX(&w[0], &b[0], &x[r*in], &y[r*out], in, wide)
		}
		if wide < out {
			linearRow1Asm(&w[wide*in], &b[wide], &x[r*in], &y[r*out+wide], in, out-wide)
		}
	}
}

// linearCols computes one full Linear layer over a column-major batch:
// xt is [in][ld] and yt [out][ld], ld a multiple of colRows. Every (row,
// output) is linearRow1Asm's sum for that row, so each row's bits are
// linearRows' — the kernel only shares each weight load among eight rows
// and each activation load among four outputs.
func linearCols(w, b, xt, yt []float64, in, out, ld int) {
	// The kernel takes bare pointers: fail here on a short slice.
	_, _, _, _ = w[in*out-1], b[out-1], xt[in*ld-1], yt[out*ld-1]
	linearColsAVX(&w[0], &b[0], &xt[0], &yt[0], in, out, ld)
}

// transpose4 runs blocks four-by-four transposes (transpose4AVX): block b
// reads the four vectors src[k*sLine+b*sBlock:][:4], k = 0…3, and writes
// element j of vector k to dst[j*dLine+b*dBlock+k]. It runs only with AVX.
func transpose4(dst []float64, dLine, dBlock int, src []float64, sLine, sBlock, blocks int) {
	if blocks == 0 {
		return
	}
	// The kernel takes bare pointers: fail here on a short slice.
	_, _ = dst[3*dLine+(blocks-1)*dBlock+3], src[3*sLine+(blocks-1)*sBlock+3]
	transpose4AVX(&dst[0], dLine, dBlock, &src[0], sLine, sBlock, blocks)
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

// axpyRows4 is axpyRows on four destinations that share a and the row
// count: for k = 0…3, the m elements at dst[k*dStride:] accumulate a's rows
// scaled by sc[row*scStride+k*scLane], each with the bits of its own
// axpyRows call. One load of a serves all four. It runs only with AVX.
func axpyRows4(dst []float64, dStride, m int, a []float64, aStride int, sc []float64, scStride, scLane, rows int) {
	if m == 0 || rows == 0 {
		return
	}
	_, _, _ = dst[3*dStride+m-1], a[(rows-1)*aStride+m-1], sc[(rows-1)*scStride+3*scLane]
	axpyRows4AVX(&dst[0], dStride, m, &a[0], aStride, &sc[0], scStride, scLane, rows)
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
