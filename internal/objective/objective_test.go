package objective

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewValidation(t *testing.T) {
	if _, err := New(0.8, 0.1, 0.1); err != nil {
		t.Errorf("valid weights rejected: %v", err)
	}
	bad := []struct{ thr, lat, loss float64 }{
		{0, 0.5, 0.5},     // zero weight
		{1, 0, 0},         // boundary values
		{0.5, 0.5, 0.5},   // sum != 1
		{-0.2, 0.6, 0.6},  // negative
		{0.9, 0.05, 0.01}, // sum != 1
	}
	for _, c := range bad {
		if _, err := New(c.thr, c.lat, c.loss); err == nil {
			t.Errorf("New(%v, %v, %v) accepted invalid weights", c.thr, c.lat, c.loss)
		}
	}
	if _, err := New(math.NaN(), 0.5, 0.5); err == nil {
		t.Error("NaN weight accepted")
	}
}

func TestPresetsAreValid(t *testing.T) {
	for _, w := range []Weights{ThroughputPref, LatencyPref, RTCPref, BalancePref, BulkPref} {
		if err := w.Validate(); err != nil {
			t.Errorf("preset %v invalid: %v", w, err)
		}
	}
}

func TestNormalize(t *testing.T) {
	w := Weights{8, 1, 1}.Normalize()
	if err := w.Validate(); err != nil {
		t.Fatalf("normalized invalid: %v", err)
	}
	if math.Abs(w.Thr-0.8) > 1e-9 {
		t.Errorf("Thr = %v, want 0.8", w.Thr)
	}
	// Zero and negative entries get floored, not dropped.
	w2 := Weights{1, 0, -5}.Normalize()
	if err := w2.Validate(); err != nil {
		t.Errorf("floored normalize invalid: %v", err)
	}
}

func TestNormalizeProperty(t *testing.T) {
	f := func(a, b, c float64) bool {
		a = math.Mod(math.Abs(a), 100)
		b = math.Mod(math.Abs(b), 100)
		c = math.Mod(math.Abs(c), 100)
		w := Weights{a, b, c}.Normalize()
		return w.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestVectorAndDistance(t *testing.T) {
	w := Weights{0.5, 0.3, 0.2}
	v := w.Vector()
	if v[0] != 0.5 || v[1] != 0.3 || v[2] != 0.2 {
		t.Errorf("Vector = %v", v)
	}
	if d := w.Distance(w); d != 0 {
		t.Errorf("self distance = %v", d)
	}
	o := Weights{0.2, 0.3, 0.5}
	want := math.Sqrt(0.09 + 0 + 0.09)
	if d := w.Distance(o); math.Abs(d-want) > 1e-12 {
		t.Errorf("Distance = %v, want %v", d, want)
	}
}

func TestParse(t *testing.T) {
	for _, s := range []string{"<0.8, 0.1, 0.1>", "0.8,0.1,0.1", "< 0.8,0.1 , 0.1 >"} {
		w, err := Parse(s)
		if err != nil {
			t.Errorf("Parse(%q): %v", s, err)
			continue
		}
		if w != (Weights{0.8, 0.1, 0.1}) {
			t.Errorf("Parse(%q) = %v", s, w)
		}
	}
	for _, s := range []string{"", "1,2", "a,b,c", "0.5,0.5,0.5"} {
		if _, err := Parse(s); err == nil {
			t.Errorf("Parse(%q) should fail", s)
		}
	}
}

func TestStringRoundTrip(t *testing.T) {
	w := Weights{0.4, 0.5, 0.1}
	got, err := Parse(w.String())
	if err != nil {
		t.Fatal(err)
	}
	if got.Distance(w) > 1e-9 {
		t.Errorf("round trip %v -> %v", w, got)
	}
}

func TestReward(t *testing.T) {
	w := Weights{0.5, 0.3, 0.2}
	if r := w.Reward(1, 1, 1); math.Abs(r-1) > 1e-12 {
		t.Errorf("perfect reward = %v, want 1", r)
	}
	if r := w.Reward(0, 0, 0); r != 0 {
		t.Errorf("zero reward = %v", r)
	}
	if r := w.Reward(1, 0, 0); math.Abs(r-0.5) > 1e-12 {
		t.Errorf("thr-only reward = %v, want 0.5", r)
	}
}

func TestLandmarkCount(t *testing.T) {
	// Paper ω values: step 4→3, 5→6, 6→10, 10→36, 20→171.
	cases := map[int]int{4: 3, 5: 6, 6: 10, 10: 36, 20: 171, 3: 1, 2: 0}
	for step, want := range cases {
		if got := LandmarkCount(step); got != want {
			t.Errorf("LandmarkCount(%d) = %d, want %d", step, got, want)
		}
		if got := len(Landmarks(step)); got != want {
			t.Errorf("len(Landmarks(%d)) = %d, want %d", step, got, want)
		}
	}
}

func TestLandmarksAreValidWeights(t *testing.T) {
	for _, step := range []int{3, 4, 5, 10, 20} {
		for _, p := range Landmarks(step) {
			if !p.valid() {
				t.Errorf("invalid lattice point %+v", p)
			}
			if err := p.Weights().Validate(); err != nil {
				t.Errorf("landmark %v invalid: %v", p.Weights(), err)
			}
		}
	}
}

func TestLandmarksUnique(t *testing.T) {
	seen := map[[3]int]bool{}
	for _, p := range Landmarks(10) {
		key := [3]int{p.I, p.J, p.K}
		if seen[key] {
			t.Fatalf("duplicate landmark %v", key)
		}
		seen[key] = true
	}
}

func TestStepForOmega(t *testing.T) {
	cases := map[int]int{3: 4, 6: 5, 10: 6, 36: 10, 171: 20, 100: 16}
	for omega, wantStep := range cases {
		if got := StepForOmega(omega); got != wantStep {
			t.Errorf("StepForOmega(%d) = %d, want %d", omega, got, wantStep)
		}
	}
}

func TestNeighborsPaperExamples(t *testing.T) {
	// At step 0.1: <0.2,0.4,0.4> and <0.2,0.5,0.3> are neighbours;
	// <0.2,0.4,0.4> and <0.1,0.5,0.4> are neighbours;
	// <0.2,0.4,0.4> and <0.1,0.3,0.6> are NOT.
	p := Lattice{I: 2, J: 4, K: 4, Step: 10}
	hasNeighbor := func(q Lattice) bool {
		for _, n := range p.Neighbors() {
			if n.I == q.I && n.J == q.J && n.K == q.K {
				return true
			}
		}
		return false
	}
	if !hasNeighbor(Lattice{I: 2, J: 5, K: 3, Step: 10}) {
		t.Error("<0.2,0.5,0.3> should be a neighbour")
	}
	if !hasNeighbor(Lattice{I: 1, J: 5, K: 4, Step: 10}) {
		t.Error("<0.1,0.5,0.4> should be a neighbour")
	}
	if hasNeighbor(Lattice{I: 1, J: 3, K: 6, Step: 10}) {
		t.Error("<0.1,0.3,0.6> should NOT be a neighbour")
	}
}

func TestNeighborsStayOnLattice(t *testing.T) {
	for _, p := range Landmarks(6) {
		for _, n := range p.Neighbors() {
			if !n.valid() {
				t.Errorf("neighbour %+v of %+v off lattice", n, p)
			}
			if n == p {
				t.Errorf("point is its own neighbour: %+v", p)
			}
		}
	}
}

func TestNeighborsSymmetric(t *testing.T) {
	pts := Landmarks(8)
	adj := func(a, b Lattice) bool {
		for _, n := range a.Neighbors() {
			if n == b {
				return true
			}
		}
		return false
	}
	for _, a := range pts {
		for _, b := range pts {
			if adj(a, b) != adj(b, a) {
				t.Fatalf("asymmetric adjacency between %+v and %+v", a, b)
			}
		}
	}
}

func TestDefaultBootstraps(t *testing.T) {
	bs := DefaultBootstraps(10)
	want := [][3]int{{6, 3, 1}, {1, 6, 3}, {3, 1, 6}}
	if len(bs) != 3 {
		t.Fatalf("got %d bootstraps, want 3", len(bs))
	}
	for i, b := range bs {
		if [3]int{b.I, b.J, b.K} != want[i] {
			t.Errorf("bootstrap %d = %+v, want %v", i, b, want[i])
		}
	}
}

func TestSortObjectivesCoversAll(t *testing.T) {
	for _, step := range []int{4, 5, 6, 10} {
		landmarks := Landmarks(step)
		order, err := SortObjectives(landmarks, DefaultBootstraps(step))
		if err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if len(order) != len(landmarks) {
			t.Fatalf("step %d: order covers %d of %d", step, len(order), len(landmarks))
		}
		seen := map[[3]int]bool{}
		for _, p := range order {
			key := [3]int{p.I, p.J, p.K}
			if seen[key] {
				t.Fatalf("step %d: duplicate %v in order", step, key)
			}
			seen[key] = true
		}
	}
}

func TestSortObjectivesStartsAtBootstrap(t *testing.T) {
	step := 10
	order, err := SortObjectives(Landmarks(step), DefaultBootstraps(step))
	if err != nil {
		t.Fatal(err)
	}
	first := order[0]
	b := DefaultBootstraps(step)[0]
	if first != b {
		t.Errorf("order starts at %+v, want bootstrap %+v", first, b)
	}
}

func TestSortObjectivesDeterministic(t *testing.T) {
	a, err := SortObjectives(Landmarks(10), DefaultBootstraps(10))
	if err != nil {
		t.Fatal(err)
	}
	b, err := SortObjectives(Landmarks(10), DefaultBootstraps(10))
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("non-deterministic order at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
}

func TestSortObjectivesNeighborhoodLocality(t *testing.T) {
	// Early visits from each bootstrap should be close to that bootstrap:
	// the second objective visited overall must be within graph distance 2
	// of the first bootstrap.
	step := 10
	order, err := SortObjectives(Landmarks(step), DefaultBootstraps(step))
	if err != nil {
		t.Fatal(err)
	}
	b := DefaultBootstraps(step)[0]
	if d := order[1].Weights().Distance(b.Weights()); d > 0.3 {
		t.Errorf("second visit %v too far from bootstrap %v (d=%v)", order[1].Weights(), b.Weights(), d)
	}
}

func TestSortObjectivesErrors(t *testing.T) {
	if _, err := SortObjectives(nil, DefaultBootstraps(10)); err == nil {
		t.Error("expected error for empty landmarks")
	}
	if _, err := SortObjectives(Landmarks(10), nil); err == nil {
		t.Error("expected error for empty bootstraps")
	}
	// Bootstrap from a different lattice.
	if _, err := SortObjectives(Landmarks(10), []Lattice{{I: 50, J: 1, K: 1, Step: 52}}); err == nil {
		t.Error("expected error for bootstrap outside landmark set")
	}
}

func TestSampleSimplex(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var sumThr float64
	n := 5000
	for i := 0; i < n; i++ {
		w := SampleSimplex(rng)
		if err := w.Validate(); err != nil {
			t.Fatalf("sample %v invalid: %v", w, err)
		}
		sumThr += w.Thr
	}
	// Uniform Dirichlet(1,1,1) has mean 1/3 per coordinate.
	if mean := sumThr / float64(n); math.Abs(mean-1.0/3) > 0.02 {
		t.Errorf("mean thr weight = %v, want ~1/3", mean)
	}
}

func TestUniformObjectivesDeterministic(t *testing.T) {
	a := UniformObjectives(100, 7)
	b := UniformObjectives(100, 7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different objectives")
		}
	}
	c := UniformObjectives(100, 8)
	if a[0] == c[0] && a[1] == c[1] && a[2] == c[2] {
		t.Error("different seeds produced identical prefix")
	}
}

func TestPool(t *testing.T) {
	p := NewPool()
	if p.Len() != 0 {
		t.Error("new pool not empty")
	}
	rng := rand.New(rand.NewSource(2))
	if _, ok := p.Sample(rng, Weights{}); ok {
		t.Error("empty pool returned a sample")
	}
	w1 := Weights{0.8, 0.1, 0.1}
	w2 := Weights{0.1, 0.8, 0.1}
	if !p.Add(w1) {
		t.Error("first Add returned false")
	}
	if p.Add(w1) {
		t.Error("duplicate Add returned true")
	}
	p.Add(w2)
	if p.Len() != 2 {
		t.Errorf("Len = %d, want 2", p.Len())
	}
	// Sampling with exclusion always yields the other entry.
	for i := 0; i < 20; i++ {
		got, ok := p.Sample(rng, w1)
		if !ok || got != w2 {
			t.Fatalf("Sample excluding w1 = %v, %v; want w2", got, ok)
		}
	}
	// Single-entry pool returns that entry even when excluded.
	solo := NewPool()
	solo.Add(w1)
	if got, ok := solo.Sample(rng, w1); !ok || got != w1 {
		t.Errorf("solo Sample = %v, %v", got, ok)
	}
}

// sampleFiltered is Pool.Sample as it was written before it walked to the
// pick: index a filtered copy of the candidates. It is the oracle the walk
// must match, draw for draw.
func sampleFiltered(items []Weights, rng *rand.Rand, exclude Weights) Weights {
	candidates := items
	if len(items) > 1 {
		filtered := make([]Weights, 0, len(items))
		for _, w := range items {
			if w != exclude {
				filtered = append(filtered, w)
			}
		}
		if len(filtered) > 0 {
			candidates = filtered
		}
	}
	return candidates[rng.Intn(len(candidates))]
}

func TestPoolSampleMatchesFiltered(t *testing.T) {
	for n := 1; n <= 6; n++ {
		p := NewPool()
		for i := 0; i < n; i++ {
			p.Add(Weights{Thr: 0.1 * float64(i+1), Lat: 0.5, Loss: 0.1})
		}
		// Exclude nothing in the pool, then each entry in turn.
		excludes := append([]Weights{{Thr: 0.9, Lat: 0.05, Loss: 0.05}}, p.items...)
		for _, ex := range excludes {
			for seed := int64(1); seed <= 30; seed++ {
				got, want := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
				for draw := 0; draw < 8; draw++ {
					w, ok := p.Sample(got, ex)
					if ref := sampleFiltered(p.items, want, ex); !ok || w != ref {
						t.Fatalf("pool of %d excluding %v, seed %d draw %d: Sample = %v, %v; the filtered copy picks %v",
							n, ex, seed, draw, w, ok, ref)
					}
				}
			}
		}
	}
}

func TestPoolAllSorted(t *testing.T) {
	p := NewPool()
	p.Add(Weights{0.8, 0.1, 0.1})
	p.Add(Weights{0.1, 0.8, 0.1})
	p.Add(Weights{0.1, 0.1, 0.8})
	all := p.All()
	for i := 1; i < len(all); i++ {
		if all[i].Thr < all[i-1].Thr {
			t.Errorf("All not sorted: %v", all)
		}
	}
}

func TestPoolRefCounting(t *testing.T) {
	p := NewPool()
	w1 := Weights{0.8, 0.1, 0.1}
	w2 := Weights{0.1, 0.8, 0.1}
	p.Add(w1)
	p.Add(w1) // second application with the same preference
	p.Add(w2)
	if p.Refs(w1) != 2 {
		t.Fatalf("Refs(w1) = %d, want 2", p.Refs(w1))
	}
	if p.Release(w1) {
		t.Error("first Release removed a double-referenced entry")
	}
	if p.Len() != 2 {
		t.Errorf("Len after partial release = %d, want 2", p.Len())
	}
	if !p.Release(w1) {
		t.Error("last Release did not remove the entry")
	}
	if p.Len() != 1 || p.Refs(w1) != 0 {
		t.Errorf("Len = %d, Refs(w1) = %d after full release", p.Len(), p.Refs(w1))
	}
	// Releasing an absent entry is a harmless no-op.
	if p.Release(w1) {
		t.Error("Release of absent entry reported removal")
	}
	// Removed entries never come back from Sample.
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 20; i++ {
		if got, ok := p.Sample(rng, Weights{}); !ok || got != w2 {
			t.Fatalf("Sample = %v, %v; want w2 only", got, ok)
		}
	}
	// Re-adding after full release starts a fresh refcount.
	if !p.Add(w1) {
		t.Error("re-Add after full release not reported as new")
	}
}
