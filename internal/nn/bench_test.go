package nn

import (
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

// BenchmarkEvaluatorForwardBatch measures the serving-side batched
// inference path: Evaluator.ForwardBatch, which runs the n = 1 kernel on
// each of the 64 rows, so its ns/sample against BenchmarkEvaluatorForward's
// is what batching saves outside the kernel (one call and one pass over the
// layers per batch instead of per row).
func BenchmarkEvaluatorForwardBatch(b *testing.B) {
	const batch = 64
	e := benchNet().NewEvaluator()
	x := benchInput(batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForwardBatch(x, batch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/sample")
}

// BenchmarkEvaluatorForward is the same path on a batch of one, the shape
// of a lone serving decision.
func BenchmarkEvaluatorForward(b *testing.B) {
	e := benchNet().NewEvaluator()
	x := benchInput(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.ForwardBatch(x, 1)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/sample")
}
