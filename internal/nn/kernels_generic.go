//go:build !amd64

package nn

// Portable fallbacks for the SSE2 microkernels in kernels_amd64.s, blocked
// the same way so batched throughput still beats the per-sample path.

// dotRowBatch computes y[r*out+o] = bias + dot(w, x[r*in:(r+1)*in]) for
// every batch row r, four rows per pass.
func dotRowBatch(w, x, y []float64, n, in, out, o int, bias float64) {
	r := 0
	for ; r+3 < n; r += 4 {
		x0 := x[(r+0)*in : (r+1)*in]
		x1 := x[(r+1)*in : (r+2)*in]
		x2 := x[(r+2)*in : (r+3)*in]
		x3 := x[(r+3)*in : (r+4)*in]
		s0, s1, s2, s3 := bias, bias, bias, bias
		for i, wi := range w {
			s0 += wi * x0[i]
			s1 += wi * x1[i]
			s2 += wi * x2[i]
			s3 += wi * x3[i]
		}
		y[(r+0)*out+o] = s0
		y[(r+1)*out+o] = s1
		y[(r+2)*out+o] = s2
		y[(r+3)*out+o] = s3
	}
	for ; r < n; r++ {
		xr := x[r*in : (r+1)*in]
		sum := bias
		for i, wi := range w {
			sum += wi * xr[i]
		}
		y[r*out+o] = sum
	}
}

// linearForward computes one full Linear layer over n batch rows, one
// dotRowBatch pass per output unit.
func linearForward(w, b, x, y []float64, n, in, out int) {
	for o := 0; o < out; o++ {
		dotRowBatch(w[o*in:(o+1)*in], x, y, n, in, out, o, b[o])
	}
}

// useAVX is never set off amd64: Evaluator.ForwardBatch runs linearRows at
// every batch size.
const useAVX = false

// linearCols is the column path's AVX kernel, which only runs when useAVX is
// set.
func linearCols(w, b, xt, yt []float64, in, out, ld int) { panic("nn: linearCols without AVX") }

// linearRows is the n = 1 forward of every row. Here that is linearForward
// itself: dotRowBatch sums each row on its own, bias first, at any n.
func linearRows(w, b, x, y []float64, n, in, out int) { linearForward(w, b, x, y, n, in, out) }

// axpyRows accumulates rows scaled rows into dst, one after the other:
// dst[i] += a[row*aStride+i] * g[row*gStride] for row = 0 … rows-1.
func axpyRows(dst, a []float64, aStride int, g []float64, gStride, rows int) {
	for r := 0; r < rows; r++ {
		gr, ar := g[r*gStride], a[r*aStride:r*aStride+len(dst)]
		for i := range dst {
			dst[i] += gr * ar[i]
		}
	}
}

// addTo accumulates src into dst element-wise (dst[i] += src[i]), the
// gradient-reduction kernel of the data-parallel PPO update. The slices
// must have equal length, matching the amd64 kernel's contract.
func addTo(dst, src []float64) {
	if len(dst) != len(src) {
		panic("nn: addTo length mismatch")
	}
	for i, v := range src {
		dst[i] += v
	}
}
