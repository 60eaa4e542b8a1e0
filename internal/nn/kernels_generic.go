//go:build !amd64

package nn

// Portable stand-ins for the kernels in kernels_amd64.s.

// useAVX is never set off amd64: Linear.ForwardBatch and
// Evaluator.ForwardBatch run linearRows at every batch size, and the
// element-wise helpers their Go loops.
const useAVX = false

// WithoutAVX runs f; off amd64 every path is already the one without AVX.
func WithoutAVX(f func()) { f() }

// linearCols is the column path's AVX kernel, which only runs when useAVX is
// set.
func linearCols(w, b, xt, yt []float64, in, out, ld int) { panic("nn: linearCols without AVX") }

// transpose4 is the column path's AVX transpose, which only runs when useAVX
// is set.
func transpose4(dst []float64, dLine, dBlock int, src []float64, sLine, sBlock, blocks int) {
	panic("nn: transpose4 without AVX")
}

// axpyRows4 is the backward's four-destination AVX kernel, which only runs
// when useAVX is set.
func axpyRows4(dst []float64, dStride, m int, a []float64, aStride int, sc []float64, scStride, scLane, rows int) {
	panic("nn: axpyRows4 without AVX")
}

// The element-wise AVX kernels, which only run when useAVX is set.
func tanhAVX(dst, src *float64, n int)                     { panic("nn: tanhAVX without AVX") }
func tanhBackAVX(dst, grad, y *float64, n int)             { panic("nn: tanhBackAVX without AVX") }
func adamAVX(p, grad, m, v *float64, n int, k *[8]float64) { panic("nn: adamAVX without AVX") }

// linearRows runs the n = 1 forward, linearRow1, on each of n row-major
// batch rows.
func linearRows(w, b, x, y []float64, n, in, out int) {
	for r := 0; r < n; r++ {
		linearRow1(w, b, x[r*in:(r+1)*in], y[r*out:(r+1)*out], in, out)
	}
}

// axpyRows accumulates rows scaled rows into dst, one after the other:
// dst[i] += a[row*aStride+i] * g[row*gStride] for row = 0 … rows-1. The
// conversion rounds each product on its own, as the amd64 kernels do, so
// no GOARCH fuses it into the add that follows.
func axpyRows(dst, a []float64, aStride int, g []float64, gStride, rows int) {
	for r := 0; r < rows; r++ {
		gr, ar := g[r*gStride], a[r*aStride:r*aStride+len(dst)]
		for i := range dst {
			dst[i] += float64(gr * ar[i])
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
