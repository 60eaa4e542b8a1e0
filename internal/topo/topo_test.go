package topo

import (
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"mocc/internal/cc"
	"mocc/internal/trace"
)

// fixedRate is a non-reactive constant-rate controller for tests.
type fixedRate struct {
	rate float64
}

func (f *fixedRate) Name() string                { return "fixed" }
func (f *fixedRate) Reset(int64)                 {}
func (f *fixedRate) InitialRate(float64) float64 { return f.rate }
func (f *fixedRate) Update(cc.Report) float64    { return f.rate }

// link is a shorthand constructor for test topologies.
func link(name string, capacity, delay float64) LinkConfig {
	return LinkConfig{Name: name, Capacity: trace.Constant(capacity), Delay: delay, QueuePkts: 100}
}

func mustTopo(t *testing.T, links ...LinkConfig) *Topology {
	t.Helper()
	tp, err := New(links)
	if err != nil {
		t.Fatal(err)
	}
	return tp
}

// TestTopologyValidation tables the constructor's and path checks' error
// cases.
func TestTopologyValidation(t *testing.T) {
	good := []LinkConfig{link("a", 1000, 0.01), link("b", 500, 0.02)}
	tooMany := make([]LinkConfig, MaxLinks+1)
	for i := range tooMany {
		tooMany[i] = link(string(rune('a'+i%26))+string(rune('0'+i/26)), 100, 0.01)
	}
	newCases := []struct {
		name    string
		links   []LinkConfig
		wantSub string
	}{
		{"no-links", nil, "at least one"},
		{"too-many-links", tooMany, "limit"},
		{"unnamed-link", []LinkConfig{{Capacity: trace.Constant(1), Delay: 0.01}}, "needs a name"},
		{"duplicate-name", []LinkConfig{link("a", 1, 0.01), link("a", 2, 0.01)}, "duplicate"},
		{"nil-capacity", []LinkConfig{{Name: "a", Delay: 0.01}}, "capacity"},
		{"zero-delay", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: 0}}, "delay"},
		{"negative-delay", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: -1}}, "delay"},
		{"inf-delay", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: math.Inf(1)}}, "delay"},
		{"nan-delay", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: math.NaN()}}, "delay"},
		{"negative-loss", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: 0.01, LossRate: -0.1}}, "loss"},
		{"full-loss", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: 0.01, LossRate: 1}}, "loss"},
		{"nan-loss", []LinkConfig{{Name: "a", Capacity: trace.Constant(1), Delay: 0.01, LossRate: math.NaN()}}, "loss"},
	}
	for _, c := range newCases {
		if _, err := New(c.links); err == nil {
			t.Errorf("%s: New accepted invalid links", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}

	tp := mustTopo(t, good...)
	if tp.Index("a") != 0 || tp.Index("b") != 1 || tp.Index("zzz") != -1 {
		t.Errorf("Index lookups wrong: a=%d b=%d zzz=%d", tp.Index("a"), tp.Index("b"), tp.Index("zzz"))
	}
	pathCases := []struct {
		name    string
		path    []int
		wantSub string
	}{
		{"empty-path", nil, "at least one"},
		{"negative-index", []int{-1}, "index"},
		{"out-of-range", []int{2}, "index"},
		{"looping-path", []int{0, 1, 0}, "twice"},
	}
	for _, c := range pathCases {
		if err := tp.CheckPath(c.path); err == nil {
			t.Errorf("%s: CheckPath accepted invalid path", c.name)
		} else if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	if err := tp.CheckPath([]int{0, 1}); err != nil {
		t.Errorf("valid path rejected: %v", err)
	}

	if err := tp.CheckDAG([][]int{{0, 1}, {1}}); err != nil {
		t.Errorf("acyclic paths rejected: %v", err)
	}
	if err := tp.CheckDAG([][]int{{0, 1}, {1, 0}}); err == nil {
		t.Error("cyclic paths accepted")
	} else if !strings.Contains(err.Error(), "cycle") {
		t.Errorf("cycle error %q does not mention the cycle", err)
	}

	if got, want := tp.PathDelay([]int{0, 1}), 0.03; math.Abs(got-want) > 1e-12 {
		t.Errorf("PathDelay = %g, want %g", got, want)
	}
}

// TestFlowDefaults pins the netsim-mirroring default derivations.
func TestFlowDefaults(t *testing.T) {
	tp := mustTopo(t, link("wide", 4000, 0.01), link("narrow", 300, 0.04))
	cfg := applyFlowDefaults(tp, FlowConfig{Alg: &fixedRate{rate: 100}, Path: []int{0, 1}})
	if got, want := cfg.MIms, 100.0; got != want { // 2 * 50ms path OWD
		t.Errorf("MIms default = %g, want %g", got, want)
	}
	// The cap derives from the path's NARROWEST link, not the first one.
	if got, want := cfg.MaxRate, 4*300.0; got != want {
		t.Errorf("MaxRate default = %g, want %g (4x narrowest link)", got, want)
	}
	if cfg.Label != "fixed" {
		t.Errorf("Label default = %q, want algorithm name", cfg.Label)
	}
	short := applyFlowDefaults(tp, FlowConfig{Alg: &fixedRate{rate: 100}, Path: []int{0}})
	if got, want := short.MIms, 20.0; got != want { // 2*10ms = 20ms ≥ the 10ms floor
		t.Errorf("single-hop MIms default = %g, want %g", got, want)
	}
}

// TestEventQueueOrdering drives the 4-ary heap against a sorted slice: a
// shuffled population, then pops of which a third are followed at once by a
// push — the replace-top pair that fills the root a pop left open — with
// keys that land above, among and below what is queued. Even trials draw
// times from a grid of 20 values, so nodes are full of time ties and the
// exact eventBefore scan decides; odd trials draw distinct times, so the
// branch-free tournament does. The pop sequence must be the sorted order.
func TestEventQueueOrdering(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 100; trial++ {
		draw := func() event {
			e := event{
				time:   float64(rng.Intn(20)) / 4,
				kind:   int16(rng.Intn(6)),
				flowID: int32(rng.Intn(4)),
				hop:    int16(rng.Intn(3)),
			}
			if trial%2 == 1 {
				e.time = 5 * rng.Float64()
			}
			return e
		}
		var q eventQueue
		var model []event
		add := func() {
			e := draw()
			q.push(e)
			model = append(model, e)
			sort.SliceStable(model, func(a, b int) bool { return eventBefore(&model[a], &model[b]) })
		}
		n := 1 + rng.Intn(200)
		for i := 0; i < n; i++ {
			add()
		}
		for refills := 300; len(model) > 0; {
			if got, want := q.top(), model[0]; got == nil || *got != want {
				t.Fatalf("trial %d: top %+v, sorted order has %+v", trial, got, want)
			}
			if got, want := q.pop(), model[0]; got != want {
				t.Fatalf("trial %d: popped %+v, sorted order has %+v", trial, got, want)
			}
			model = model[1:]
			if refills > 0 && rng.Intn(3) == 0 {
				refills--
				add()
			}
		}
		if q.top() != nil {
			t.Fatalf("trial %d: queue holds %+v after the sorted order ran out", trial, *q.top())
		}
	}
}

// TestReferencePhysicalBehaviour spot-checks the reference engine against
// first-principles expectations on a two-link chain so it stays a
// trustworthy baseline for the equivalence suite.
func TestReferencePhysicalBehaviour(t *testing.T) {
	tp := mustTopo(t, link("access", 2000, 0.01), link("core", 1000, 0.02))
	r := NewReference(tp, 1)
	f := r.AddFlow(FlowConfig{Alg: &fixedRate{rate: 500}, Path: []int{0, 1}})
	r.Run(10)
	if f.LostTotal != 0 {
		t.Errorf("losses on an underloaded path: %d", f.LostTotal)
	}
	if f.DeliveredTotal < 4800 || f.DeliveredTotal > 5100 {
		t.Errorf("delivered %d, want ~5000", f.DeliveredTotal)
	}
	avgRTT := f.SumRTT / float64(f.DeliveredTotal)
	// Base RTT 60ms plus two service times (0.5ms + 1ms).
	if avgRTT < 0.060 || avgRTT > 0.066 {
		t.Errorf("avg RTT %v, want ~0.0615", avgRTT)
	}
	if f.SentTotal != f.DeliveredTotal+f.LostTotal+f.InFlight() {
		t.Error("conservation violated")
	}

	// A narrower core than access link must bound throughput by the core.
	r2 := NewReference(tp, 2)
	g := r2.AddFlow(FlowConfig{Alg: &fixedRate{rate: 1800}, Path: []int{0, 1}, MaxRate: 4000})
	r2.Run(10)
	rate := float64(g.DeliveredTotal) / 10
	if rate > 1001 {
		t.Errorf("delivered %g pkts/s through a 1000 pkts/s core", rate)
	}
	if rate < 900 {
		t.Errorf("delivered %g pkts/s, want the core nearly saturated", rate)
	}
}
