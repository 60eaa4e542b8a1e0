// Package objective implements MOCC's preference machinery: application
// weight vectors over <throughput, latency, loss>, landmark objective
// generation on the probability simplex, the neighbourhood graph over
// landmarks, and the Dijkstra-based objective sorting algorithm from
// Appendix B that orders the fast-traversing phase of offline training.
package objective

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Weights is an application requirement: the relative importance of
// throughput, latency and packet-loss performance. Valid weights are
// strictly positive and sum to 1 (§4.1).
type Weights struct {
	Thr  float64 // throughput weight
	Lat  float64 // latency weight
	Loss float64 // loss-rate weight
}

// Common preference presets used throughout the paper's evaluation.
var (
	// ThroughputPref is the high-throughput objective <0.8, 0.1, 0.1>
	// used for Figure 5(a-d) and video streaming (§6.3).
	ThroughputPref = Weights{0.8, 0.1, 0.1}
	// LatencyPref is the low-latency objective <0.1, 0.8, 0.1> used for
	// Figure 5(e-h).
	LatencyPref = Weights{0.1, 0.8, 0.1}
	// RTCPref is the real-time-communication objective <0.4, 0.5, 0.1>
	// (§6.3).
	RTCPref = Weights{0.4, 0.5, 0.1}
	// BalancePref weights all three metrics equally (MOCC-Balance in
	// §6.4).
	BalancePref = Weights{1.0 / 3, 1.0 / 3, 1.0 / 3}
	// BulkPref approximates the paper's greedy <1, 0, 0> bulk-transfer
	// weight, clamped to the open simplex the model is defined on.
	BulkPref = Weights{0.98, 0.01, 0.01}
)

// New validates and returns a weight vector. Each weight must lie in (0, 1)
// and the weights must sum to 1 within a small tolerance.
func New(thr, lat, loss float64) (Weights, error) {
	w := Weights{Thr: thr, Lat: lat, Loss: loss}
	if err := w.Validate(); err != nil {
		return Weights{}, err
	}
	return w, nil
}

// Validate checks the open-simplex constraints from §4.1.
func (w Weights) Validate() error {
	for _, v := range []float64{w.Thr, w.Lat, w.Loss} {
		if math.IsNaN(v) || v <= 0 || v >= 1 {
			return fmt.Errorf("objective: weight %v outside (0, 1)", v)
		}
	}
	if s := w.Thr + w.Lat + w.Loss; math.Abs(s-1) > 1e-6 {
		return fmt.Errorf("objective: weights sum to %v, want 1", s)
	}
	return nil
}

// Normalize rescales the weights to sum to 1, clamping non-positive entries
// to a small floor first. It is the permissive counterpart to New for inputs
// arriving from applications.
func (w Weights) Normalize() Weights {
	const floor = 1e-3
	t := math.Max(w.Thr, floor)
	l := math.Max(w.Lat, floor)
	s := math.Max(w.Loss, floor)
	sum := t + l + s
	return Weights{t / sum, l / sum, s / sum}
}

// Vector returns the weights as a 3-element slice in <thr, lat, loss> order,
// the layout fed to the preference sub-network.
func (w Weights) Vector() []float64 { return []float64{w.Thr, w.Lat, w.Loss} }

// Distance returns the Euclidean distance between two weight vectors, the
// similarity measure behind neighbourhood transfer (§4.2).
func (w Weights) Distance(o Weights) float64 {
	dt := w.Thr - o.Thr
	dl := w.Lat - o.Lat
	ds := w.Loss - o.Loss
	return math.Sqrt(dt*dt + dl*dl + ds*ds)
}

// String implements fmt.Stringer using the paper's <a, b, c> notation.
func (w Weights) String() string {
	return fmt.Sprintf("<%.3g, %.3g, %.3g>", w.Thr, w.Lat, w.Loss)
}

// Parse reads a weight vector in "<0.8, 0.1, 0.1>" or "0.8,0.1,0.1" form.
func Parse(s string) (Weights, error) {
	clean := strings.NewReplacer("<", "", ">", "", " ", "").Replace(s)
	parts := strings.Split(clean, ",")
	if len(parts) != 3 {
		return Weights{}, fmt.Errorf("objective: expected 3 comma-separated weights, got %q", s)
	}
	vals := make([]float64, 3)
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return Weights{}, fmt.Errorf("objective: parsing %q: %w", p, err)
		}
		vals[i] = v
	}
	return New(vals[0], vals[1], vals[2])
}

// Reward combines the three normalized objective measures (each in [0, 1])
// into the scalar dynamic reward of Equation 2.
func (w Weights) Reward(oThr, oLat, oLoss float64) float64 {
	return w.Thr*oThr + w.Lat*oLat + w.Loss*oLoss
}

// Lattice is an integer point (i, j, k) with i+j+k = Step on the interior
// simplex lattice; it corresponds to the weight vector (i, j, k)/Step.
type Lattice struct {
	I, J, K int
	Step    int
}

// Weights converts the lattice point to its weight vector.
func (p Lattice) Weights() Weights {
	s := float64(p.Step)
	return Weights{float64(p.I) / s, float64(p.J) / s, float64(p.K) / s}
}

// valid reports whether the point is on the interior lattice.
func (p Lattice) valid() bool {
	return p.Step >= 3 && p.I >= 1 && p.J >= 1 && p.K >= 1 && p.I+p.J+p.K == p.Step
}

// LandmarkCount returns the number of interior lattice points at the given
// step denominator: C(step-1, 2). The paper's ω values map to steps as
// 4→3, 5→6, 6→10, 10→36, 20→171 (§6.5).
func LandmarkCount(step int) int {
	if step < 3 {
		return 0
	}
	return (step - 1) * (step - 2) / 2
}

// Landmarks enumerates all interior simplex lattice points at denominator
// step, in deterministic lexicographic (i, j) order.
func Landmarks(step int) []Lattice {
	var out []Lattice
	for i := 1; i <= step-2; i++ {
		for j := 1; j <= step-1-i; j++ {
			out = append(out, Lattice{I: i, J: j, K: step - i - j, Step: step})
		}
	}
	return out
}

// LandmarkWeights is Landmarks converted to weight vectors.
func LandmarkWeights(step int) []Weights {
	pts := Landmarks(step)
	ws := make([]Weights, len(pts))
	for i, p := range pts {
		ws[i] = p.Weights()
	}
	return ws
}

// StepForOmega returns the lattice step whose landmark count is closest to
// (and at least) the requested ω, mirroring the paper's ω ∈ {3, 6, 10, 36,
// 171} sweep.
func StepForOmega(omega int) int {
	for step := 3; ; step++ {
		if LandmarkCount(step) >= omega {
			return step
		}
	}
}

// Neighbors returns the lattice points adjacent to p under the paper's
// neighbourhood definition (Appendix B): two vectors are neighbours when
// they differ in exactly two dimensions, each by one unit step. On the
// lattice this is moving one unit from one coordinate to another.
func (p Lattice) Neighbors() []Lattice {
	moves := [6][3]int{
		{+1, -1, 0}, {+1, 0, -1},
		{-1, +1, 0}, {0, +1, -1},
		{-1, 0, +1}, {0, -1, +1},
	}
	var out []Lattice
	for _, m := range moves {
		q := Lattice{I: p.I + m[0], J: p.J + m[1], K: p.K + m[2], Step: p.Step}
		if q.valid() {
			out = append(out, q)
		}
	}
	return out
}

// DefaultBootstraps returns the paper's three bootstrapping objectives
// <0.6,0.3,0.1>, <0.1,0.6,0.3>, <0.3,0.1,0.6> (Appendix B), snapped to the
// lattice at the given step.
func DefaultBootstraps(step int) []Lattice {
	targets := []Weights{
		{0.6, 0.3, 0.1},
		{0.1, 0.6, 0.3},
		{0.3, 0.1, 0.6},
	}
	out := make([]Lattice, len(targets))
	for i, t := range targets {
		out[i] = snapToLattice(t, step)
	}
	return out
}

// snapToLattice finds the interior lattice point nearest to w.
func snapToLattice(w Weights, step int) Lattice {
	best := Lattice{}
	bestDist := math.Inf(1)
	for _, p := range Landmarks(step) {
		if d := p.Weights().Distance(w); d < bestDist {
			bestDist = d
			best = p
		}
	}
	return best
}

// SortObjectives implements the neighbourhood-based objective sorting
// algorithm (Appendix B, Algorithm 1). Given the full landmark set and the
// bootstrapped objectives, it returns a training order that starts from each
// bootstrap in turn and expands outward by graph distance, giving each
// bootstrap ⌈|V|/|O|⌉ visits per round until every objective is placed.
//
// Edge weights are uniform, so the per-bootstrap expansion is Dijkstra over
// a unit-weight graph. Ties are broken deterministically by lexicographic
// lattice order.
func SortObjectives(landmarks []Lattice, bootstraps []Lattice) ([]Lattice, error) {
	if len(landmarks) == 0 {
		return nil, errors.New("objective: no landmarks to sort")
	}
	if len(bootstraps) == 0 {
		return nil, errors.New("objective: no bootstrap objectives")
	}
	index := make(map[[3]int]int, len(landmarks))
	for i, p := range landmarks {
		index[[3]int{p.I, p.J, p.K}] = i
	}
	for _, b := range bootstraps {
		if _, ok := index[[3]int{b.I, b.J, b.K}]; !ok {
			return nil, fmt.Errorf("objective: bootstrap %v not in landmark set", b.Weights())
		}
	}

	nB := len(bootstraps)
	nV := len(landmarks)
	// dist[i][v]: distance of vertex v from bootstrap i.
	dist := make([][]float64, nB)
	for i := range dist {
		dist[i] = make([]float64, nV)
		for v := range dist[i] {
			dist[i][v] = math.Inf(1)
		}
		bi := index[[3]int{bootstraps[i].I, bootstraps[i].J, bootstraps[i].K}]
		dist[i][bi] = 0
		for _, nb := range landmarks[bi].Neighbors() {
			if vi, ok := index[[3]int{nb.I, nb.J, nb.K}]; ok {
				dist[i][vi] = 1
			}
		}
	}

	visited := make([]bool, nV)
	var order []Lattice
	perRound := (nV + nB - 1) / nB

	for len(order) < nV {
		progressed := false
		for i := 0; i < nB && len(order) < nV; i++ {
			visits := perRound
			bi := index[[3]int{bootstraps[i].I, bootstraps[i].J, bootstraps[i].K}]
			if !visited[bi] {
				visited[bi] = true
				order = append(order, landmarks[bi])
				visits--
				progressed = true
				relaxNeighbors(landmarks, index, dist[i], bi)
			}
			for visits > 0 && len(order) < nV {
				u := minUnvisited(dist[i], visited, landmarks)
				if u < 0 {
					break
				}
				visited[u] = true
				order = append(order, landmarks[u])
				visits--
				progressed = true
				relaxNeighbors(landmarks, index, dist[i], u)
			}
		}
		if !progressed {
			// Disconnected remainder (cannot happen on a simplex lattice,
			// but guard anyway): append in lexicographic order.
			for v := 0; v < nV; v++ {
				if !visited[v] {
					visited[v] = true
					order = append(order, landmarks[v])
				}
			}
		}
	}
	return order, nil
}

// relaxNeighbors updates neighbour distances after visiting vertex u.
func relaxNeighbors(landmarks []Lattice, index map[[3]int]int, dist []float64, u int) {
	for _, nb := range landmarks[u].Neighbors() {
		if vi, ok := index[[3]int{nb.I, nb.J, nb.K}]; ok {
			if dist[u]+1 < dist[vi] {
				dist[vi] = dist[u] + 1
			}
		}
	}
}

// minUnvisited returns the unvisited vertex with smallest finite distance,
// breaking ties lexicographically; -1 if none is reachable.
func minUnvisited(dist []float64, visited []bool, landmarks []Lattice) int {
	best := -1
	for v := range dist {
		if visited[v] || math.IsInf(dist[v], 1) {
			continue
		}
		if best < 0 || dist[v] < dist[best] ||
			(dist[v] == dist[best] && latticeLess(landmarks[v], landmarks[best])) {
			best = v
		}
	}
	return best
}

// latticeLess orders lattice points lexicographically by (I, J).
func latticeLess(a, b Lattice) bool {
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// SampleSimplex draws a weight vector uniformly from the open simplex using
// normalized exponentials (equivalent to Dirichlet(1,1,1)). Used for the
// 100-objective evaluation (§6.1).
func SampleSimplex(rng *rand.Rand) Weights {
	e1 := rng.ExpFloat64()
	e2 := rng.ExpFloat64()
	e3 := rng.ExpFloat64()
	sum := e1 + e2 + e3
	return Weights{e1 / sum, e2 / sum, e3 / sum}.Normalize()
}

// UniformObjectives draws n weight vectors uniformly from the simplex,
// deterministically from seed.
func UniformObjectives(n int, seed int64) []Weights {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Weights, n)
	for i := range out {
		out[i] = SampleSimplex(rng)
	}
	return out
}

// Pool stores application requirements encountered online, supporting the
// requirement-replay algorithm (§4.3): during online adaptation each update
// also optimizes a previously seen objective drawn uniformly at random.
//
// Entries are reference-counted: registering the same requirement twice
// needs two Releases before replay stops rehearsing it, so a preference
// stays in the pool exactly as long as some registered application (or a
// permanent adaptation entry) still uses it. All methods are safe for
// concurrent use.
type Pool struct {
	mu    sync.Mutex
	items []Weights
	refs  map[Weights]int
}

// NewPool creates an empty requirement pool.
func NewPool() *Pool {
	return &Pool{refs: make(map[Weights]int)}
}

// Add records one reference to a requirement and reports whether it was
// newly added (first reference).
func (p *Pool) Add(w Weights) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.refs[w]++
	if p.refs[w] > 1 {
		return false
	}
	p.items = append(p.items, w)
	return true
}

// Release drops one reference to a requirement. When the last reference is
// released the entry leaves the pool (and replay stops rehearsing it);
// Release reports whether that happened. Releasing an absent requirement is
// a no-op.
func (p *Pool) Release(w Weights) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	n, ok := p.refs[w]
	if !ok {
		return false
	}
	if n > 1 {
		p.refs[w] = n - 1
		return false
	}
	delete(p.refs, w)
	for i, item := range p.items {
		if item == w {
			p.items = append(p.items[:i], p.items[i+1:]...)
			break
		}
	}
	return true
}

// Refs returns the current reference count for a requirement.
func (p *Pool) Refs(w Weights) int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.refs[w]
}

// Len returns the number of distinct stored requirements.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.items)
}

// Sample returns a uniformly random stored requirement, excluding (when
// possible) the currently training one, so replay always reinforces an *old*
// application as Equation 6 intends.
func (p *Pool) Sample(rng *rand.Rand, exclude Weights) (Weights, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.items) == 0 {
		return Weights{}, false
	}
	// Count the candidates, draw one and walk to it: the draw and the pick
	// of indexing a filtered copy, without the copy.
	n, skip := len(p.items), false
	if n > 1 {
		count := 0
		for _, w := range p.items {
			if w != exclude {
				count++
			}
		}
		if count > 0 {
			n, skip = count, true
		}
	}
	k := rng.Intn(n)
	for _, w := range p.items {
		if skip && w == exclude {
			continue
		}
		if k == 0 {
			return w, true
		}
		k--
	}
	panic("objective: unreachable")
}

// All returns a sorted copy of the stored requirements (sorted by throughput
// weight, then latency) for deterministic iteration.
func (p *Pool) All() []Weights {
	p.mu.Lock()
	out := append([]Weights(nil), p.items...)
	p.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Thr != out[j].Thr {
			return out[i].Thr < out[j].Thr
		}
		return out[i].Lat < out[j].Lat
	})
	return out
}
