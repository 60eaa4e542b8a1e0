package topo

import (
	"fmt"
	"math"
	"testing"
)

// The tests in this file pin the packet-train mechanism itself — what waits
// where, what the tie guard catches, what a run allocates — beside the
// equivalence suite, which pins only that the results are Reference's.

// referenceEventCounts replays a scenario the way Reference.Run does, one
// heap for everything, and counts the events it dispatches: by kind, with
// evArrive split into hop-0 transmissions and downstream-hop arrivals.
func referenceEventCounts(t *testing.T, sc multiScenario) (byKind [evArrive + 1]int, downstream int) {
	t.Helper()
	r := NewReference(mustTopo(t, sc.links...), sc.seed)
	for _, fc := range sc.flows {
		r.AddFlow(fc)
	}
	c := &r.core
	c.initRun(r.Topo, r.Flows, r.seed, sc.dur)
	for h := c.heap.top(); h != nil && h.time <= sc.dur; h = c.heap.top() {
		e := c.heap.pop()
		byKind[e.kind]++
		if e.kind == evArrive && e.hop > 0 {
			downstream++
		}
		if pkt, link := c.handle(e); link >= 0 {
			c.heap.push(pkt)
		}
	}
	return byKind, downstream
}

// TestEventSourceAccounting pins what the engine's speed rests on: on the
// benchmark-shaped chain every delivery and every downstream-hop arrival
// comes off a link ring, and the heap sees exactly the events that are not
// FIFO — start/stop, MI closes, hop-0 transmissions and loss notices. An
// engine that quietly put packets in flight back on the heap would still
// pass the equivalence suite; it fails here.
func TestEventSourceAccounting(t *testing.T) {
	sc := chainScenario()
	byKind, downstream := referenceEventCounts(t, sc)
	e := runEngine(sc)

	if e.tieFallbacks != 0 {
		t.Errorf("tie guard fired %d times on a chain whose service times are far above float resolution", e.tieFallbacks)
	}
	inFlight := byKind[evDeliver] + downstream
	if e.ringPops != inFlight-e.tieFallbacks {
		t.Errorf("ring pops = %d, want %d (every delivery %d + every downstream arrival %d)",
			e.ringPops, inFlight, byKind[evDeliver], downstream)
	}
	control := byKind[evStart] + byKind[evStop] + byKind[evMI] + byKind[evLoss] + byKind[evArrive] - downstream
	if e.heapPops != control+e.tieFallbacks {
		t.Errorf("heap pops = %d, want %d (start %d + stop %d + MI %d + loss %d + hop-0 sends %d)",
			e.heapPops, control, byKind[evStart], byKind[evStop], byKind[evMI], byKind[evLoss], byKind[evArrive]-downstream)
	}
	// The shape the accounting is about: a run dominated by packets in
	// flight, with every control kind present.
	if inFlight < control || byKind[evLoss] == 0 || byKind[evStop] == 0 || downstream == 0 {
		t.Errorf("scenario lost its shape: %d in flight vs %d control, by kind %v, %d downstream", inFlight, control, byKind, downstream)
	}
}

// TestTieGuard drives the cases the ring invariant cannot be assumed in.
// Link A serves at 1e18 pkts/s, so past t = 0 its 1e-18 s service time is
// absorbed (t + 1e-18 == t) and packets can leave it with equal stamps.
//
// arrive-vs-deliver: two flows start at the same instant at the same fixed
// rate on paths [A, B] and [A]. Both packets of one instant leave A with
// one stamp: flow 0's arrival at B, admitted first, and flow 1's delivery.
// The canonical order at one timestamp is delivery first; a ring without
// the guard would hold, and run, [arrive(flow 0), deliver(flow 1)].
//
// flow-order: both flows cross only A, whose delay is 1 s; flow 1 starts at
// t = 1 and flow 0 one ulp later, and 1 + 2^-52 + 1 rounds to 2. The two
// deliveries carry the stamp 2 in admission order [flow 1, flow 0], and the
// canonical order is by flow ID — here the unguarded ring is observable in
// the delivery callbacks, not only in the counter.
func TestTieGuard(t *testing.T) {
	type delivery struct {
		flow int
		at   float64
	}
	cases := []multiScenario{
		{
			name:  "arrive-vs-deliver",
			links: []LinkConfig{link("A", 1e18, 0.01), link("B", 1000, 0.02)},
			flows: []FlowConfig{
				{Alg: &fixedRate{rate: 200}, Path: []int{0, 1}},
				{Alg: &fixedRate{rate: 200}, Path: []int{0}},
			},
		},
		{
			name:  "flow-order",
			links: []LinkConfig{link("A", 1e18, 1)},
			flows: []FlowConfig{
				{Alg: &fixedRate{rate: 200}, Path: []int{0}, Start: math.Nextafter(1, 2)},
				{Alg: &fixedRate{rate: 200}, Path: []int{0}, Start: 1},
			},
		},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			run := func(n interface {
				AddFlow(FlowConfig) *Flow
				Run(float64)
			}) (order []delivery) {
				for i, fc := range sc.flows {
					n.AddFlow(fc).OnDeliver = func(ts float64) { order = append(order, delivery{i, ts}) }
				}
				n.Run(5)
				return order
			}
			ref := NewReference(mustTopo(t, sc.links...), 1)
			want := run(ref)
			eng := NewEngine(mustTopo(t, sc.links...), 1)
			got := run(eng)

			compareFlows(t, "engine", "reference", eng.Flows, ref.Flows)
			if len(got) != len(want) || len(want) < 1000 {
				t.Fatalf("%d deliveries on engine, %d on reference, want equal and over 1000", len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("delivery %d: engine %+v, reference %+v", i, got[i], want[i])
				}
			}
			if eng.tieFallbacks == 0 {
				t.Error("the tie guard never fired: the scenario no longer produces equal stamps on one ring")
			}
		})
	}
}

// TestLongChainEquivalence runs a 64-link chain — one end-to-end flow, a
// cross flow on every link, loss on every eighth — so the front scan is
// exercised well past the nine links the scenario generators stop at.
func TestLongChainEquivalence(t *testing.T) {
	const n = 64
	sc := multiScenario{name: "chain-64", dur: 4, seed: 11}
	through := make([]int, n)
	for i := 0; i < n; i++ {
		l := link(fmt.Sprintf("l%d", i), 900+float64(37*i%200), 0.001+float64(i%5)*0.0004)
		if i%8 == 3 {
			l.LossRate = 0.01
		}
		sc.links = append(sc.links, l)
		through[i] = i
		sc.flows = append(sc.flows, FlowConfig{
			Alg: &fixedRate{rate: 300 + float64(11*i%150)}, Path: []int{i}, Start: float64(i%7) * 0.05,
		})
	}
	sc.flows = append(sc.flows, FlowConfig{Alg: &fixedRate{rate: 600}, Path: through})

	e := runEngine(sc)
	compareFlows(t, "engine", "reference", e.Flows, runReference(sc).Flows)

	long := e.Flows[n]
	if long.DeliveredTotal < 1000 || long.LostTotal == 0 {
		t.Errorf("end-to-end flow delivered %d and lost %d of %d: want traffic and mid-path losses across all 64 hops",
			long.DeliveredTotal, long.LostTotal, long.SentTotal)
	}
	if e.ringPops <= e.heapPops {
		t.Errorf("ring pops %d vs heap pops %d: a 64-hop flow should keep most events on the rings", e.ringPops, e.heapPops)
	}
}

// TestEngineSteadyStateAllocFree mirrors netsim's pin of the same name: a
// 3-link run of over 150k packets may allocate only its setup — per flow
// the Flow, its pre-sized Stats and AddFlow's path check; the SoA block,
// the link states with their RNGs, the heap's growth to a dozen entries and
// each ring's doublings from 64 entries up to its peak in-flight population
// (68 allocations when this was written, 67 for a tenth of the packets) — and nothing per packet.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	tp := mustTopo(t, link("a", 4000, 0.005), link("b", 3000, 0.01), link("c", 3500, 0.005))
	flows := []FlowConfig{
		{Alg: &fixedRate{rate: 2000}, Path: []int{0, 1, 2}},
		{Alg: &fixedRate{rate: 1500}, Path: []int{0, 1}},
		{Alg: &fixedRate{rate: 1500}, Path: []int{1, 2}},
		{Alg: &fixedRate{rate: 1500}, Path: []int{2}},
	}
	allocs := testing.AllocsPerRun(3, func() {
		e := NewEngine(tp, 1)
		for _, fc := range flows {
			e.AddFlow(fc)
		}
		e.Run(25)
		sent := 0
		for _, f := range e.Flows {
			sent += f.SentTotal
		}
		if sent < 150_000 || e.ringPops < 150_000 {
			t.Fatalf("run too short: %d packets, %d ring events", sent, e.ringPops)
		}
	})
	if allocs > 80 {
		t.Errorf("3-link run allocated %v times for over 150k packets, want setup only (<= 80)", allocs)
	}
}
