package topo

import (
	"testing"

	"mocc/internal/cc"
	"mocc/internal/netsim"
	"mocc/internal/trace"
)

// compareFlows asserts two flow sets agree bitwise on every observable.
func compareFlows(t *testing.T, aName, bName string, a, b []*Flow) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s has %d flows, %s has %d", aName, len(a), bName, len(b))
	}
	for i := range a {
		f, r := a[i], b[i]
		if f.SentTotal != r.SentTotal || f.DeliveredTotal != r.DeliveredTotal || f.LostTotal != r.LostTotal {
			t.Errorf("flow %d totals: %s sent/del/lost %d/%d/%d, %s %d/%d/%d",
				i, aName, f.SentTotal, f.DeliveredTotal, f.LostTotal,
				bName, r.SentTotal, r.DeliveredTotal, r.LostTotal)
		}
		if f.Completed != r.Completed || f.CompletionTime != r.CompletionTime {
			t.Errorf("flow %d completion: %s %v@%v, %s %v@%v",
				i, aName, f.Completed, f.CompletionTime, bName, r.Completed, r.CompletionTime)
		}
		if f.SumRTT != r.SumRTT {
			t.Errorf("flow %d SumRTT: %s %v, %s %v", i, aName, f.SumRTT, bName, r.SumRTT)
		}
		if len(f.Stats) != len(r.Stats) {
			t.Fatalf("flow %d: %d MIs on %s vs %d on %s", i, len(f.Stats), aName, len(r.Stats), bName)
		}
		for mi := range r.Stats {
			if f.Stats[mi] != r.Stats[mi] {
				t.Fatalf("flow %d MI %d differs:\n%s %+v\n%s  %+v",
					i, mi, aName, f.Stats[mi], bName, r.Stats[mi])
			}
		}
	}
}

// singleLinkScenario is one case of the netsim bit-compat suite: the same
// nine scenarios netsim's own equivalence suite pins, expressed once as a
// netsim LinkConfig and once as a one-link topology.
type singleLinkScenario struct {
	name  string
	link  netsim.LinkConfig
	flows []netsim.FlowConfig
	dur   float64
	seed  int64
}

// singleLinkScenarios mirrors netsim's equivalenceScenarios: every batching
// hazard that suite covers must also hold across the netsim/topo boundary.
func singleLinkScenarios() []singleLinkScenario {
	mk := func(r float64) netsim.FlowConfig { return netsim.FlowConfig{Alg: &fixedRate{rate: r}} }
	return []singleLinkScenario{
		{
			name:  "single-flow-underload",
			link:  netsim.LinkConfig{Capacity: trace.Constant(1000), OWD: 0.02, QueuePkts: 40},
			flows: []netsim.FlowConfig{mk(500)},
			dur:   10,
			seed:  1,
		},
		{
			name:  "two-flow-overload",
			link:  netsim.LinkConfig{Capacity: trace.Constant(1000), OWD: 0.02, QueuePkts: 40},
			flows: []netsim.FlowConfig{mk(900), mk(900)},
			dur:   10,
			seed:  2,
		},
		{
			name: "three-flow-staggered-start-stop",
			link: netsim.LinkConfig{Capacity: trace.Constant(2000), OWD: 0.015, QueuePkts: 80},
			flows: []netsim.FlowConfig{
				{Alg: &fixedRate{rate: 900}, Start: 0, Stop: 8},
				{Alg: &fixedRate{rate: 1100}, Start: 2},
				{Alg: &fixedRate{rate: 700}, Start: 4, Stop: 9},
			},
			dur:  12,
			seed: 3,
		},
		{
			name:  "step-trace-mid-train",
			link:  netsim.LinkConfig{Capacity: trace.Step{Low: 500, High: 1500, Period: 0.9}, OWD: 0.01, QueuePkts: 60},
			flows: []netsim.FlowConfig{mk(1200), mk(600)},
			dur:   8,
			seed:  4,
		},
		{
			name:  "random-loss-stream",
			link:  netsim.LinkConfig{Capacity: trace.Constant(1500), OWD: 0.02, QueuePkts: 50, LossRate: 0.03},
			flows: []netsim.FlowConfig{mk(800), mk(800)},
			dur:   10,
			seed:  5,
		},
		{
			name: "packet-budget-completion",
			link: netsim.LinkConfig{Capacity: trace.Constant(1000), OWD: 0.02, QueuePkts: 40},
			flows: []netsim.FlowConfig{
				{Alg: &fixedRate{rate: 600}, PacketBudget: 1000},
				{Alg: &fixedRate{rate: 600}, PacketBudget: 2500},
			},
			dur:  12,
			seed: 6,
		},
		{
			name: "reactive-controllers-with-loss",
			link: netsim.LinkConfig{Capacity: trace.Constant(1200), OWD: 0.02, QueuePkts: 45, LossRate: 0.01},
			flows: []netsim.FlowConfig{
				{Alg: cc.NewCubic(), Seed: 11},
				{Alg: cc.NewBBR(), Start: 1, Seed: 12},
				{Alg: cc.NewVegas(), Start: 2, Stop: 18, Seed: 13},
			},
			dur:  25,
			seed: 7,
		},
		{
			name:  "random-walk-generic-trace",
			link:  netsim.LinkConfig{Capacity: trace.NewRandomWalk(400, 1600, 0.5, 10, 9), OWD: 0.02, QueuePkts: 50},
			flows: []netsim.FlowConfig{mk(900), {Alg: cc.NewCubic(), Seed: 14}},
			dur:   10,
			seed:  8,
		},
		{
			name: "levels-replay-trace",
			link: netsim.LinkConfig{
				Capacity:  trace.MustLevels([]float64{0, 0.7, 1.5, 2.2, 3.0}, []float64{1200, 400, 1600, 250, 900}, 3.5),
				OWD:       0.02,
				QueuePkts: 55,
			},
			flows: []netsim.FlowConfig{mk(850), {Alg: cc.NewBBR(), Start: 1, Seed: 21}},
			dur:   11,
			seed:  9,
		},
	}
}

// asTopology lowers a netsim single-link scenario onto a one-link topology.
func asTopology(t testing.TB, sc singleLinkScenario) (*Topology, []FlowConfig) {
	t.Helper()
	tp, err := New([]LinkConfig{{
		Name:      "bottleneck",
		Capacity:  sc.link.Capacity,
		Delay:     sc.link.OWD,
		QueuePkts: sc.link.QueuePkts,
		LossRate:  sc.link.LossRate,
	}})
	if err != nil {
		t.Fatal(err)
	}
	flows := make([]FlowConfig, len(sc.flows))
	for i, fc := range sc.flows {
		flows[i] = FlowConfig{
			Label: fc.Label, Alg: fc.Alg, Path: []int{0},
			Start: fc.Start, Stop: fc.Stop, MIms: fc.MIms,
			PacketBudget: fc.PacketBudget, MaxRate: fc.MaxRate, Seed: fc.Seed,
		}
	}
	return tp, flows
}

// TestNetsimBitCompat is the single-link proof obligation: a one-link
// topology run through BOTH topo engines must reproduce netsim.Network
// bit-for-bit on the full netsim equivalence suite — same float ops in the
// same order, same RNG stream, same event ranks. Algorithm instances are
// shared across the sequential runs; Reset(seed) at each Run start makes
// that sound (netsim's own suite leans on the same property).
func TestNetsimBitCompat(t *testing.T) {
	for _, sc := range singleLinkScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			n := netsim.NewNetwork(sc.link, sc.seed)
			for _, fc := range sc.flows {
				n.AddFlow(fc)
			}
			n.Run(sc.dur)
			want := make([]*Flow, len(n.Flows))
			for i, f := range n.Flows {
				want[i] = &Flow{
					ID: f.ID, Label: f.Label, Stats: f.Stats,
					SentTotal: f.SentTotal, DeliveredTotal: f.DeliveredTotal, LostTotal: f.LostTotal,
					Completed: f.Completed, CompletionTime: f.CompletionTime, SumRTT: f.SumRTT,
				}
			}

			tp, flows := asTopology(t, sc)
			r := NewReference(tp, sc.seed)
			for _, fc := range flows {
				r.AddFlow(fc)
			}
			r.Run(sc.dur)
			compareFlows(t, "topo-ref", "netsim", r.Flows, want)

			e := NewEngine(tp, sc.seed)
			for _, fc := range flows {
				e.AddFlow(fc)
			}
			e.Run(sc.dur)
			compareFlows(t, "topo-engine", "netsim", e.Flows, want)
		})
	}
}

// multiScenario is one multi-link Engine-vs-Reference case.
type multiScenario struct {
	name  string
	links []LinkConfig
	flows []FlowConfig
	dur   float64
	seed  int64
}

// multiLinkScenarios covers the multi-link hazards: shared mid-path links,
// fan-in onto one core, per-link loss streams, budgets completing while
// packets are mid-path, and reactive controllers reading multi-hop RTTs.
func multiLinkScenarios() []multiScenario {
	return []multiScenario{
		{
			name: "parking-lot",
			links: []LinkConfig{
				link("left", 1000, 0.01),
				link("right", 800, 0.015),
			},
			flows: []FlowConfig{
				{Alg: &fixedRate{rate: 700}, Path: []int{0, 1}},
				{Alg: &fixedRate{rate: 600}, Path: []int{0}, Start: 1},
				{Alg: &fixedRate{rate: 500}, Path: []int{1}, Start: 2, Stop: 8},
			},
			dur:  10,
			seed: 1,
		},
		{
			name: "incast-fan-in",
			links: []LinkConfig{
				link("rack0", 2000, 0.001),
				link("rack1", 2000, 0.0015),
				link("rack2", 2000, 0.002),
				link("core", 1500, 0.003),
			},
			flows: []FlowConfig{
				{Alg: &fixedRate{rate: 800}, Path: []int{0, 3}},
				{Alg: &fixedRate{rate: 800}, Path: []int{1, 3}, Start: 0.1},
				{Alg: &fixedRate{rate: 800}, Path: []int{2, 3}, Start: 0.2},
				{Alg: &fixedRate{rate: 800}, Path: []int{0, 3}, Start: 0.3},
			},
			dur:  5,
			seed: 2,
		},
		{
			name: "lossy-three-hop-chain",
			links: []LinkConfig{
				{Name: "a", Capacity: trace.Constant(1200), Delay: 0.005, QueuePkts: 60, LossRate: 0.02},
				{Name: "b", Capacity: trace.Step{Low: 400, High: 1400, Period: 0.7}, Delay: 0.02, QueuePkts: 40},
				{Name: "c", Capacity: trace.Constant(900), Delay: 0.01, QueuePkts: 80, LossRate: 0.01},
			},
			flows: []FlowConfig{
				{Alg: &fixedRate{rate: 800}, Path: []int{0, 1, 2}},
				{Alg: &fixedRate{rate: 500}, Path: []int{1, 2}, Start: 0.5},
				{Alg: &fixedRate{rate: 400}, Path: []int{2}, Start: 1, Stop: 7},
			},
			dur:  8,
			seed: 3,
		},
		{
			name: "budget-completes-mid-path",
			links: []LinkConfig{
				link("edge", 1000, 0.01),
				link("core", 600, 0.03),
			},
			flows: []FlowConfig{
				{Alg: &fixedRate{rate: 700}, Path: []int{0, 1}, PacketBudget: 1500},
				{Alg: &fixedRate{rate: 700}, Path: []int{0, 1}},
			},
			dur:  10,
			seed: 4,
		},
		{
			name: "reactive-on-multi-hop",
			links: []LinkConfig{
				{Name: "access", Capacity: trace.Constant(1000), Delay: 0.01, QueuePkts: 80},
				{Name: "core", Capacity: trace.Constant(700), Delay: 0.025, QueuePkts: 60, LossRate: 0.005},
			},
			flows: []FlowConfig{
				{Alg: cc.NewCubic(), Path: []int{0, 1}, Seed: 31},
				{Alg: cc.NewBBR(), Path: []int{0, 1}, Start: 1, Seed: 32},
				{Alg: cc.NewVegas(), Path: []int{1}, Start: 2, Seed: 33},
			},
			dur:  15,
			seed: 5,
		},
		chainScenario(),
	}
}

// chainScenario is the shape of the benchmark's sim-topo workload
// (bench/specs/sim-topo.json): three links in series with random loss on
// the middle one, reactive schemes over paths of every length, a bulk
// budget, start/stop windows and fixed-rate cross traffic.
func chainScenario() multiScenario {
	pps := func(mbps float64) float64 { return mbps * 1e6 / 8 / 1500 }
	return multiScenario{
		name: "mixed-path-chain",
		links: []LinkConfig{
			{Name: "access", Capacity: trace.Constant(pps(40)), Delay: 0.005, QueuePkts: 150},
			{Name: "core", Capacity: trace.Constant(pps(30)), Delay: 0.010, QueuePkts: 200, LossRate: 0.001},
			{Name: "egress", Capacity: trace.Constant(pps(35)), Delay: 0.005, QueuePkts: 150},
		},
		flows: []FlowConfig{
			{Alg: cc.NewCubic(), Path: []int{0, 1, 2}, Seed: 41},
			{Alg: cc.NewBBR(), Path: []int{0, 1, 2}, Start: 1.5, Seed: 42},
			{Alg: cc.NewCopa(), Path: []int{0, 1, 2}, Start: 0.75, Seed: 43},
			{Alg: cc.NewVegas(), Path: []int{0, 1}, Start: 3, Seed: 44},
			{Alg: cc.NewCubic(), Path: []int{1, 2}, Start: 2.25, Seed: 45},
			{Alg: cc.NewCubic(), Path: []int{0}, Start: 4.5, Stop: 10.5, Seed: 46},
			{Alg: cc.NewBBR(), Path: []int{1}, Start: 1.5, Stop: 9, Seed: 47},
			{Alg: cc.NewCubic(), Path: []int{2}, Start: 6, PacketBudget: 3000, Seed: 48},
			{Alg: &fixedRate{rate: pps(3)}, Path: []int{1}},
			{Alg: &fixedRate{rate: pps(2)}, Path: []int{2}},
		},
		dur:  12,
		seed: 6,
	}
}

// runEngine executes a multi-link scenario on the packet-train engine.
func runEngine(sc multiScenario) *Engine {
	tp, err := New(sc.links)
	if err != nil {
		panic(err)
	}
	e := NewEngine(tp, sc.seed)
	for _, fc := range sc.flows {
		e.AddFlow(fc)
	}
	e.Run(sc.dur)
	return e
}

// runReference executes a multi-link scenario on the per-packet reference.
func runReference(sc multiScenario) *Reference {
	tp, err := New(sc.links)
	if err != nil {
		panic(err)
	}
	r := NewReference(tp, sc.seed)
	for _, fc := range sc.flows {
		r.AddFlow(fc)
	}
	r.Run(sc.dur)
	return r
}

// TestMultiLinkEngineEquivalence holds the packet-train engine to the
// per-packet reference bit-for-bit on genuinely multi-link schedules.
func TestMultiLinkEngineEquivalence(t *testing.T) {
	for _, sc := range multiLinkScenarios() {
		t.Run(sc.name, func(t *testing.T) {
			r := runReference(sc)
			compareFlows(t, "engine", "reference", runEngine(sc).Flows, r.Flows)

			moved := 0
			for _, f := range r.Flows {
				moved += f.SentTotal
			}
			if moved == 0 {
				t.Fatal("scenario moved no packets")
			}
		})
	}
}

// TestDeliveryCallbackOrder checks OnDeliver fires at identical times in
// identical per-flow order on both engines — the strongest schedule-level
// agreement short of tracing every event.
func TestDeliveryCallbackOrder(t *testing.T) {
	sc := multiLinkScenarios()[0] // parking-lot
	collect := func(mk func(tp *Topology) interface {
		AddFlow(FlowConfig) *Flow
		Run(float64)
	}) [][]float64 {
		tp, err := New(sc.links)
		if err != nil {
			t.Fatal(err)
		}
		n := mk(tp)
		out := make([][]float64, len(sc.flows))
		for i, fc := range sc.flows {
			f := n.AddFlow(fc)
			idx := i
			f.OnDeliver = func(ts float64) { out[idx] = append(out[idx], ts) }
		}
		n.Run(sc.dur)
		return out
	}
	fast := collect(func(tp *Topology) interface {
		AddFlow(FlowConfig) *Flow
		Run(float64)
	} {
		return NewEngine(tp, sc.seed)
	})
	ref := collect(func(tp *Topology) interface {
		AddFlow(FlowConfig) *Flow
		Run(float64)
	} {
		return NewReference(tp, sc.seed)
	})
	for i := range ref {
		if len(fast[i]) != len(ref[i]) {
			t.Fatalf("flow %d: %d deliveries on engine vs %d on reference", i, len(fast[i]), len(ref[i]))
		}
		for j := range ref[i] {
			if fast[i][j] != ref[i][j] {
				t.Fatalf("flow %d delivery %d: engine t=%v, reference t=%v", i, j, fast[i][j], ref[i][j])
			}
		}
	}
}
