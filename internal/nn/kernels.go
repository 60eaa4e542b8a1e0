package nn

// The forward's kernel code shared by every GOARCH: its one sum order in Go,
// and the column path's geometry and transposes.

// linearRow1 is linearRow1Asm in Go, the order every forward sums in:
// y[o] = (sum_i x[i]*w[o*in+i]) + b[o], each sum from zero in index order,
// the bias added last. The conversion rounds each product on its own, so no
// GOARCH fuses it into the add that follows. It is the forward off amd64,
// and on amd64 the tests' oracle for the asm kernels.
func linearRow1(w, b, x, y []float64, in, out int) {
	x = x[:in]
	for o := range y[:out] {
		wo := w[o*in : (o+1)*in]
		s := 0.0
		for i, xi := range x {
			s += float64(xi * wo[i])
		}
		y[o] = s + b[o]
	}
}

// colRows is the row block of the column path: one YMM register holds four
// batch rows of one activation, and the column scratch pads the batch to a
// multiple of it. Linear.ForwardBatch and Evaluator.ForwardBatch take the
// column path from one full block up. That is the kernel's geometry, not a
// tuned threshold.
const colRows = 4

// toCols writes the row-major [n x dim] matrix x into xt as dim columns of
// ld entries each (xt[i*ld+r] = x[r*dim+i]), zeroing the padding rows n…ld-1.
// Both transposes run only on the column path, with AVX: transpose4 moves
// every full four-by-four block (rows r…r+3, columns i…i+3), and Go loops
// the dim mod 4 columns and n mod 4 rows left.
func toCols(xt, x []float64, n, dim, ld int) {
	wide := dim &^ 3
	r := 0
	for ; r+4 <= n; r += 4 {
		transpose4(xt[r:], ld, 4*ld, x[r*dim:], dim, 4, wide/4)
		for i := wide; i < dim; i++ {
			c := xt[i*ld+r : i*ld+r+4]
			c[0], c[1], c[2], c[3] = x[r*dim+i], x[(r+1)*dim+i], x[(r+2)*dim+i], x[(r+3)*dim+i]
		}
	}
	if r == ld {
		return // no row tail, no padding
	}
	for i := 0; i < dim; i++ {
		col := xt[i*ld : (i+1)*ld]
		for k := r; k < n; k++ {
			col[k] = x[k*dim+i]
		}
		clear(col[n:])
	}
}

// fromCols is toCols' inverse on the live rows: y[r*dim+o] = yt[o*ld+r] for
// r < n. Padding rows are never read.
func fromCols(y, yt []float64, n, dim, ld int) {
	wide := dim &^ 3
	r := 0
	for ; r+4 <= n; r += 4 {
		transpose4(y[r*dim:], dim, 4, yt[r:], ld, 4*ld, wide/4)
		for o := wide; o < dim; o++ {
			c := yt[o*ld+r : o*ld+r+4]
			y[r*dim+o], y[(r+1)*dim+o], y[(r+2)*dim+o], y[(r+3)*dim+o] = c[0], c[1], c[2], c[3]
		}
	}
	for o := 0; o < dim; o++ {
		for k := r; k < n; k++ {
			y[k*dim+o] = yt[o*ld+k]
		}
	}
}
