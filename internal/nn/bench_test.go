package nn

import (
	"fmt"
	"math/rand"
	"testing"
)

// benchNet is the 40-64-32-2 architecture of the ISSUE's reference
// measurements: a 40-dim observation (η=12 history + preference features)
// through the paper's 64x32 trunk to a 2-dim head.
func benchNet() *MLP {
	rng := rand.New(rand.NewSource(1))
	return NewMLP(rng, 40, 64, 32, 2)
}

func benchInput(rows int) []float64 {
	rng := rand.New(rand.NewSource(2))
	x := make([]float64, rows*40)
	for i := range x {
		x[i] = rng.Float64()*2 - 1
	}
	return x
}

func BenchmarkMLPForward(b *testing.B) {
	m := benchNet()
	x := benchInput(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
	}
}

func BenchmarkMLPForwardBatch(b *testing.B) {
	const batch = 64
	m := benchNet()
	x := benchInput(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(x, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

func BenchmarkMLPForwardBackward(b *testing.B) {
	m := benchNet()
	x := benchInput(1)
	g := []float64{1, -1}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Forward(x)
		m.Backward(g)
	}
}

func BenchmarkMLPForwardBackwardBatch(b *testing.B) {
	const batch = 64
	m := benchNet()
	x := benchInput(batch)
	g := make([]float64, batch*2)
	for i := range g {
		g[i] = 1
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ForwardBatch(x, batch)
		m.BackwardBatch(g, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// BenchmarkLinearBackwardBatch measures one Linear layer's backward at a
// training minibatch of 64 rows, per layer shape of core.Model: the
// trunk's 46→64 discarding the first 30 input-gradient columns, 64→32 and
// 32→1, and the preference network's 3→16. With AVX the weight and input
// gradients go through axpyRows4 in blocks of four outputs or rows and
// axpyRows takes the rest, so 32→1's one weight row runs axpyRows.
func BenchmarkLinearBackwardBatch(b *testing.B) {
	const n = 64
	for _, c := range []struct{ in, out, from int }{{46, 64, 30}, {64, 32, 0}, {32, 1, 0}, {3, 16, 0}} {
		b.Run(fmt.Sprintf("%dto%d", c.in, c.out), func(b *testing.B) {
			l := NewLinear(c.in, c.out, rand.New(rand.NewSource(3)))
			l.GradInFrom = c.from
			l.ForwardBatch(randBatch(4, n, c.in), n)
			g := randBatch(5, n, c.out)
			l.BackwardBatch(g, n) // grow scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				l.BackwardBatch(g, n)
			}
		})
	}
}

// BenchmarkEvaluatorForwardBatch measures the serving-side forward,
// Evaluator.ForwardBatch, per batch size: n = 1 is a lone decision and
// runs linearRows (with AVX, linearRow1AVX on each layer's outputs in
// blocks of sixteen and linearRow1Asm on the rest), as do n = 2 and 3; n = 4
// is the smallest batch on the column path (linearCols, when the CPU has
// AVX); 13 is the average batch the serve-fleet workload measures; 64 is a
// full serving batch. Training's BenchmarkMLPForwardBatch runs the same
// kernels, so the gap at n = 64 is what training pays for transposing
// around every layer and caching its inputs, where serving transposes once
// per network.
func BenchmarkEvaluatorForwardBatch(b *testing.B) {
	for _, n := range []int{1, 2, 3, 4, 13, 64} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			e := benchNet().NewEvaluator()
			x := benchInput(n)
			e.ForwardBatch(x, n) // grow scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.ForwardBatch(x, n)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/sample")
		})
	}
}
