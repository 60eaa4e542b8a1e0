package nn

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// TestEvaluatorMatchesForward pins the Evaluator to the training-path
// forward bit for bit across many random inputs.
func TestEvaluatorMatchesForward(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	mlp := NewMLP(rng, 9, 16, 8, 1)
	ev := mlp.NewEvaluator()
	x := make([]float64, 9)
	for trial := 0; trial < 50; trial++ {
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		want := mlp.Forward(x)[0]
		got := ev.ForwardBatch(x, 1)[0]
		if got != want {
			t.Fatalf("trial %d: evaluator %v, forward %v", trial, got, want)
		}
	}
}

// TestEvaluatorSharesParameters verifies the evaluator sees parameter
// updates made after construction (it is a view, not a copy).
func TestEvaluatorSharesParameters(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	mlp := NewMLP(rng, 4, 6, 1)
	ev := mlp.NewEvaluator()
	x := []float64{0.1, -0.2, 0.3, -0.4}
	before := ev.ForwardBatch(x, 1)[0]
	for _, p := range mlp.Params() {
		for i := range p.Value {
			p.Value[i] += 0.05
		}
	}
	after := ev.ForwardBatch(x, 1)[0]
	if before == after {
		t.Fatal("evaluator did not observe parameter update")
	}
	if want := mlp.Forward(x)[0]; after != want {
		t.Fatalf("post-update evaluator %v, forward %v", after, want)
	}
}

// TestEvaluatorsConcurrent runs many evaluators over one frozen network from
// parallel goroutines (meaningful under -race) and checks every result.
func TestEvaluatorsConcurrent(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	mlp := NewMLP(rng, 6, 12, 1)
	x := make([]float64, 6)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	want := mlp.Forward(x)[0]

	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ev := mlp.NewEvaluator()
			for i := 0; i < 200; i++ {
				if got := ev.ForwardBatch(x, 1)[0]; got != want {
					t.Errorf("concurrent evaluator diverged: %v vs %v", got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestEvaluatorForwardBatchBitIdentical pins every ForwardBatch output row
// to the training-side MLP.Forward on that row bit for bit, across batch
// sizes on both sides of every blocking the kernels use, on a network whose
// widths are multiples of four and on one whose widths are not. This is the
// serving engine's core determinism guarantee: coalescing requests into one
// batch must not change any app's decision.
func TestEvaluatorForwardBatchBitIdentical(t *testing.T) { forwardBatchBitIdentical(t) }

func forwardBatchBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, widths := range [][]int{{9, 16, 8, 1}, {5, 7, 3}} {
		mlp := randomBiases(NewMLP(rng, widths...), rng)
		ev := mlp.NewEvaluator()
		in, out := widths[0], widths[len(widths)-1]
		for _, n := range []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 13, 17, 64, 65} {
			x := make([]float64, n*in)
			for i := range x {
				x[i] = rng.NormFloat64()
			}
			got := ev.ForwardBatch(x, n)
			if len(got) != n*out {
				t.Fatalf("widths %v batch %d: got %d outputs", widths, n, len(got))
			}
			for r := 0; r < n; r++ {
				want := mlp.Forward(x[r*in : (r+1)*in])
				for o, w := range want {
					if g := got[r*out+o]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("widths %v batch %d row %d out %d: batched %v, MLP.Forward %v", widths, n, r, o, g, w)
					}
				}
			}
		}
	}
}

// randomBiases draws every bias of m, which NewMLP leaves zero, so that a
// kernel adding the bias anywhere but last shows in the bits.
func randomBiases(m *MLP, rng *rand.Rand) *MLP {
	for _, l := range m.Layers {
		if l, ok := l.(*Linear); ok {
			for i := range l.B.Value {
				l.B.Value[i] = rng.NormFloat64()
			}
		}
	}
	return m
}

// TestEvaluatorForwardBatchAllocFree pins the steady-state batched forward
// path to zero allocations once scratch has grown to the working batch size:
// on both kernels' side of the switch, and on a batch smaller than the one
// that grew the scratch.
func TestEvaluatorForwardBatchAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	mlp := NewMLP(rng, 8, 16, 8, 1)
	x := make([]float64, 64*8)
	for i := range x {
		x[i] = rng.NormFloat64()
	}
	for _, c := range []struct{ grow, n int }{{4, 4}, {13, 13}, {64, 64}, {64, 13}} {
		ev := mlp.NewEvaluator()
		ev.ForwardBatch(x[:c.grow*8], c.grow) // grow scratch
		allocs := testing.AllocsPerRun(100, func() {
			ev.ForwardBatch(x[:c.n*8], c.n)
		})
		if allocs != 0 {
			t.Fatalf("Evaluator.ForwardBatch at n = %d after n = %d allocates %v per call", c.n, c.grow, allocs)
		}
	}
}

// TestEvaluatorAllocFree pins the steady-state single-row forward path to
// zero allocations.
func TestEvaluatorAllocFree(t *testing.T) { evaluatorAllocFree(t) }

func evaluatorAllocFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	mlp := NewMLP(rng, 8, 16, 8, 1)
	ev := mlp.NewEvaluator()
	x := make([]float64, 8)
	allocs := testing.AllocsPerRun(100, func() {
		ev.ForwardBatch(x, 1)
	})
	if allocs != 0 {
		t.Fatalf("Evaluator.ForwardBatch(x, 1) allocates %v per call", allocs)
	}
}
