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
// benchmark-shaped chain every downstream-hop arrival comes off a link
// ring, every delivery is drained from its flow's inbox without passing
// through the global order, and the heap sees exactly the events that are
// not FIFO — start/stop, MI closes, hop-0 transmissions and loss notices.
// An engine that quietly put packets in flight back on the heap, or ran
// deliveries through a ring, would still pass the equivalence suite; it
// fails here.
func TestEventSourceAccounting(t *testing.T) {
	sc := chainScenario()
	byKind, downstream := referenceEventCounts(t, sc)
	e := runEngine(sc)

	if e.tieFallbacks != 0 {
		t.Errorf("tie guard fired %d times on a chain whose service times are far above float resolution", e.tieFallbacks)
	}
	if e.ringPops != downstream {
		t.Errorf("ring pops = %d, want every downstream arrival %d", e.ringPops, downstream)
	}
	if e.drained != byKind[evDeliver] {
		t.Errorf("drained deliveries = %d, want Reference's %d", e.drained, byKind[evDeliver])
	}
	control := byKind[evStart] + byKind[evStop] + byKind[evMI] + byKind[evLoss] + byKind[evArrive] - downstream
	if e.heapPops != control {
		t.Errorf("heap pops = %d, want %d (start %d + stop %d + MI %d + loss %d + hop-0 sends %d)",
			e.heapPops, control, byKind[evStart], byKind[evStop], byKind[evMI], byKind[evLoss], byKind[evArrive]-downstream)
	}
	// The shape the accounting is about: a run dominated by packets in
	// flight, with every control kind present.
	if byKind[evDeliver]+downstream < control || byKind[evLoss] == 0 || byKind[evStop] == 0 || downstream == 0 {
		t.Errorf("scenario lost its shape: %d deliveries and %d downstream arrivals vs %d control, by kind %v",
			byKind[evDeliver], downstream, control, byKind)
	}
}

// TestTieGuard drives the cases the ring invariant cannot be assumed in, and
// holds every flow's delivery sequence — times and order — to Reference's.
// Link A serves at 1e18 pkts/s, so past t = 0 its 1e-18 s service time is
// absorbed (t + 1e-18 == t) and packets can leave it with equal stamps.
//
// flow-order: two flows cross [A, B], and A's delay is 1 s; flow 1 starts
// at t = 1 and flow 0 one ulp later, and 1 + 2^-52 + 1 rounds to 2. Both
// packets reach B with the stamp 2, A's ring holds them in admission order
// [flow 1, flow 0], and the canonical order is by flow ID. The guard must
// send flow 0's arrival to the heap: an unguarded ring would admit flow 1
// to B first and give both flows other departure times, so the delivery
// sequences tell, not only the counter.
//
// arrive-vs-deliver: two flows start at the same instant at the same fixed
// rate on paths [A, B] and [A], so both packets of one instant leave A with
// one stamp: flow 0's arrival at B and flow 1's delivery, whose canonical
// order is delivery first. The delivery waits in flow 1's inbox, not on A's
// ring, so nothing ties on a ring and the guard must stay quiet; the
// sequences must still be Reference's.
func TestTieGuard(t *testing.T) {
	cases := []struct {
		multiScenario
		guard bool // whether the tie guard has to fire
	}{
		{
			multiScenario: multiScenario{
				name:  "flow-order",
				links: []LinkConfig{link("A", 1e18, 1), link("B", 1000, 0.02)},
				flows: []FlowConfig{
					{Alg: &fixedRate{rate: 200}, Path: []int{0, 1}, Start: math.Nextafter(1, 2)},
					{Alg: &fixedRate{rate: 200}, Path: []int{0, 1}, Start: 1},
				},
			},
			guard: true,
		},
		{
			multiScenario: multiScenario{
				name:  "arrive-vs-deliver",
				links: []LinkConfig{link("A", 1e18, 0.01), link("B", 1000, 0.02)},
				flows: []FlowConfig{
					{Alg: &fixedRate{rate: 200}, Path: []int{0, 1}},
					{Alg: &fixedRate{rate: 200}, Path: []int{0}},
				},
			},
		},
	}
	for _, sc := range cases {
		t.Run(sc.name, func(t *testing.T) {
			run := func(n interface {
				AddFlow(FlowConfig) *Flow
				Run(float64)
			}) [][]float64 {
				seq := make([][]float64, len(sc.flows))
				for i, fc := range sc.flows {
					n.AddFlow(fc).OnDeliver = func(ts float64) { seq[i] = append(seq[i], ts) }
				}
				n.Run(5)
				return seq
			}
			ref := NewReference(mustTopo(t, sc.links...), 1)
			want := run(ref)
			eng := NewEngine(mustTopo(t, sc.links...), 1)
			got := run(eng)

			compareFlows(t, "engine", "reference", eng.Flows, ref.Flows)
			for f := range want {
				if len(got[f]) != len(want[f]) || len(want[f]) < 500 {
					t.Fatalf("flow %d: %d deliveries on engine, %d on reference, want equal and over 500", f, len(got[f]), len(want[f]))
				}
				for i := range want[f] {
					if got[f][i] != want[f][i] {
						t.Fatalf("flow %d delivery %d: engine t=%v, reference t=%v", f, i, got[f][i], want[f][i])
					}
				}
			}
			switch {
			case sc.guard && eng.tieFallbacks == 0:
				t.Error("the tie guard never fired: the scenario no longer produces equal stamps on one ring")
			case !sc.guard && eng.tieFallbacks != 0:
				t.Errorf("the tie guard fired %d times where no ring holds two packets of one stamp", eng.tieFallbacks)
			}
		})
	}
}

// TestBudgetCompletesAtOwnBoundary lands a budgeted flow's completing
// delivery on the very instant of its own MI boundary and its own pacing
// instant, where the inbox's drain points have to split it exactly as
// Reference's event ranks do: the MI closes without it (evMI ranks before
// evDeliver), and the transmission at that instant finds the flow complete
// and sends nothing (evDeliver ranks before evArrive). Every time is a
// dyadic rational, so nothing rounds: pacing every 2^-8 s, service 2^-9 s
// and delay 3·2^-9 s — each packet arrives two pacing gaps after it left —
// and an MI of 2^-4 s, sixteen gaps. The 31st packet leaves at 30·2^-8 s and
// arrives at 32·2^-8 = 0.125 s, the second MI boundary. A second flow on a
// link of its own runs its own drains beside this one's.
func TestBudgetCompletesAtOwnBoundary(t *testing.T) {
	sc := multiScenario{
		name:  "budget-at-boundary",
		links: []LinkConfig{link("a", 512, 3.0/512), link("b", 700, 0.01)},
		flows: []FlowConfig{
			{Alg: &fixedRate{rate: 256}, Path: []int{0}, MIms: 62.5, PacketBudget: 31},
			{Alg: &fixedRate{rate: 300}, Path: []int{1}},
		},
		dur:  1,
		seed: 9,
	}
	r := runReference(sc)
	compareFlows(t, "engine", "reference", runEngine(sc).Flows, r.Flows)

	f := r.Flows[0]
	if !f.Completed || f.CompletionTime != 0.125 {
		t.Fatalf("budgeted flow completed=%v at %v, want completion at the MI boundary 0.125", f.Completed, f.CompletionTime)
	}
	if f.SentTotal != 32 || len(f.Stats) != 2 || f.Stats[1].Time != 0.125 || f.Stats[1].Delivered != 16 {
		t.Errorf("scenario lost its shape: sent %d, MIs %+v; want 32 sent (the send at 0.125 s stale) "+
			"and two MIs, the second at 0.125 s without the completing delivery", f.SentTotal, f.Stats)
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
// the link states with their RNGs, the heap's growth to a dozen entries,
// and each link ring's and flow inbox's doublings from 2 entries up to its
// peak population (68 allocations when this was written, 62 for a tenth of
// the packets) — and nothing per packet.
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
		if sent < 150_000 || e.ringPops+e.drained < 150_000 {
			t.Fatalf("run too short: %d packets, %d ring events and %d drained deliveries", sent, e.ringPops, e.drained)
		}
	})
	if allocs > 80 {
		t.Errorf("3-link run allocated %v times for over 150k packets, want setup only (<= 80)", allocs)
	}
}
