package core

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/trace"
)

// TestInferenceMatchesActFor pins the read-shared inference path to the
// model's own forward bit for bit across preferences and observations.
func TestInferenceMatchesActFor(t *testing.T) {
	m := NewModel(HistoryLen, 42)
	inf := m.NewInference()
	rng := rand.New(rand.NewSource(9))
	obs := make([]float64, 3*m.HistoryLen)
	prefs := []objective.Weights{
		objective.ThroughputPref, objective.LatencyPref,
		objective.RTCPref, objective.BalancePref,
	}
	for trial := 0; trial < 40; trial++ {
		for i := range obs {
			obs[i] = rng.NormFloat64()
		}
		w := prefs[trial%len(prefs)]
		want := m.ActFor(w, obs)
		if got := inf.ActFor(w, obs); got != want {
			t.Fatalf("trial %d: Inference.ActFor = %v, Model.ActFor = %v", trial, got, want)
		}
	}
}

// policyMean is PolicyForward's mean for one (preference, observation) pair:
// training's caching forward at n = 1, the anchor every deployment path is
// pinned to.
func policyMean(m *Model, w objective.Weights, netObs []float64) float64 {
	obs := append(append([]float64(nil), netObs...), w.Thr, w.Lat, w.Loss)
	mean, _ := m.PolicyForward(obs)
	return mean
}

// TestActForMatchesPolicyForward pins Model.ActFor, which runs serving's
// forward-only evaluators, to PolicyForward's mean bit for bit on random
// observations under random preferences, with the AVX kernels and without.
// A Clone answers the same and builds its own view rather than sharing the
// original's.
func TestActForMatchesPolicyForward(t *testing.T) {
	check := func(t *testing.T) {
		m := NewModel(HistoryLen, 23)
		rng := rand.New(rand.NewSource(5))
		prefs := objective.UniformObjectives(64, 11)
		obs := make([]float64, 3*m.HistoryLen)
		for trial := range 200 {
			for i := range obs {
				obs[i] = 3 * rng.NormFloat64()
			}
			w := prefs[trial%len(prefs)]
			want := policyMean(m, w, obs)
			if got := m.ActFor(w, obs); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: ActFor = %v, PolicyForward mean = %v", trial, got, want)
			}
		}
		c := m.Clone()
		if got, want := c.ActFor(prefs[0], obs), m.ActFor(prefs[0], obs); got != want || c.act == m.act {
			t.Fatalf("clone ActFor = %v with view %p, original %v with view %p", got, c.act, want, m.act)
		}
	}
	t.Run("AVX", check)
	t.Run("noAVX", func(t *testing.T) { nn.WithoutAVX(func() { check(t) }) })
}

// TestBatchInferenceBitIdentical pins every BatchInference.ActBatch row to
// PolicyForward's mean — the training-side MLP layers at n = 1 — bit for bit, across
// batch sizes on both sides of every blocking the training kernels use. This
// is the determinism pin behind request coalescing: a decision must not
// depend on how many other apps happened to land in the same micro-batch.
func TestBatchInferenceBitIdentical(t *testing.T) {
	m := NewModel(HistoryLen, 42)
	bi := m.NewBatchInference()
	rng := rand.New(rand.NewSource(17))
	prefs := objective.UniformObjectives(16, 5)
	for _, n := range []int{1, 2, 3, 4, 5, 8, 31, 64, 65} {
		ws := make([]objective.Weights, n)
		obs := make([][]float64, n)
		for r := 0; r < n; r++ {
			ws[r] = prefs[r%len(prefs)]
			row := make([]float64, 3*m.HistoryLen)
			for i := range row {
				row[i] = rng.NormFloat64()
			}
			obs[r] = row
		}
		out := make([]float64, n)
		bi.ActBatch(ws, obs, out)
		for r := 0; r < n; r++ {
			if want := policyMean(m, ws[r], obs[r]); math.Float64bits(out[r]) != math.Float64bits(want) {
				t.Fatalf("batch %d row %d: batched %v, single %v", n, r, out[r], want)
			}
		}
	}
}

// TestBatchInferenceAllocFree pins the steady-state batched decision path
// to zero allocations once scratch has grown to the working batch size, on
// the row path (n = 1) and the column path (n = 64).
func TestBatchInferenceAllocFree(t *testing.T) {
	m := NewModel(HistoryLen, 8)
	for _, n := range []int{1, 64} {
		bi := m.NewBatchInference()
		ws := make([]objective.Weights, n)
		obs := make([][]float64, n)
		for r := 0; r < n; r++ {
			ws[r] = objective.BalancePref
			obs[r] = make([]float64, 3*m.HistoryLen)
		}
		out := make([]float64, n)
		bi.ActBatch(ws, obs, out) // grow scratch
		allocs := testing.AllocsPerRun(100, func() {
			bi.ActBatch(ws, obs, out)
		})
		if allocs != 0 {
			t.Fatalf("ActBatch at n = %d allocates %v per call", n, allocs)
		}
	}
}

// TestInferenceAllocFree pins the single-decision path — ActBatch on a
// batch of one built on the stack — to zero allocations.
func TestInferenceAllocFree(t *testing.T) {
	m := NewModel(HistoryLen, 8)
	inf := m.NewInference()
	obs := make([]float64, 3*m.HistoryLen)
	inf.ActFor(objective.BalancePref, obs) // grow scratch
	if allocs := testing.AllocsPerRun(100, func() { inf.ActFor(objective.BalancePref, obs) }); allocs != 0 {
		t.Fatalf("Inference.ActFor allocates %v per call", allocs)
	}
}

// TestInferenceConcurrent drives many inferences over one model in parallel
// (meaningful under -race) while a writer holds LockParams for updates.
func TestInferenceConcurrent(t *testing.T) {
	m := NewModel(HistoryLen, 7)
	obs := make([]float64, 3*m.HistoryLen)
	for i := range obs {
		obs[i] = 0.1 * float64(i%7)
	}
	stop := make(chan struct{})
	writerDone := make(chan struct{})
	// Writer: perturbs parameters under the write lock, as online
	// adaptation does.
	go func() {
		defer close(writerDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			m.LockParams()
			for _, p := range m.ActorParams() {
				for j := range p.Value {
					p.Value[j] += 1e-9
				}
			}
			m.UnlockParams()
		}
	}()
	var readers sync.WaitGroup
	for g := 0; g < 8; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			inf := m.NewInference()
			w := objective.UniformObjectives(8, int64(g+1))[g%8]
			for i := 0; i < 300; i++ {
				if v := inf.ActFor(w, obs); v != v { // NaN guard
					t.Errorf("goroutine %d: NaN action", g)
					return
				}
			}
		}(g)
	}
	readers.Wait()
	close(stop)
	<-writerDone
}

// TestAdapterReleaseDropsPoolEntry covers the unregister path: the last
// release of a preference removes it from the requirement-replay pool.
func TestAdapterReleaseDropsPoolEntry(t *testing.T) {
	m := NewModel(8, 1)
	cfg := DefaultAdaptConfig()
	cfg.Envs = TrainingEnvs(trace.TrainingRanges(), 8)
	a, err := NewAdapter(m, cfg)
	if err != nil {
		t.Fatal(err)
	}
	w := objective.RTCPref
	a.Register(w)
	a.Register(w) // two apps share the preference
	if a.Pool().Refs(w) != 2 {
		t.Fatalf("Refs = %d, want 2", a.Pool().Refs(w))
	}
	if a.Release(w) {
		t.Error("first unregister removed a still-referenced preference")
	}
	if a.Pool().Len() != 1 {
		t.Fatalf("pool lost the entry while one app still holds it")
	}
	if !a.Release(w) {
		t.Error("last unregister did not drop the preference")
	}
	if a.Pool().Len() != 0 {
		t.Fatalf("pool retains unregistered preference: Len = %d", a.Pool().Len())
	}
}
