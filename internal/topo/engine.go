package topo

import "math"

// Engine is the production topology simulator: netsim's packet-train scheme
// generalised to L links, on one goroutine.
//
// What is pending waits in one of three places. Every link owns one FIFO
// ring of the packets it has admitted for a next hop, each stamped with the
// time it reaches that hop. A link is a FIFO fixed-rate server, so its
// departure times are strictly increasing, and every packet then adds the
// link's one constant delay: each ring is sorted as it is filled, and a hop
// costs one append and one removal at the ends of an array. Every flow owns
// one FIFO of the packets that have left the last link of its path, each
// stamped with the time it reaches the receiver (its inbox). The heap
// (core.heap) keeps only what is not FIFO — start/stop, MI boundaries, one
// pacing entry per active flow (re-keyed in place when it fires, see
// eventQueue) and mid-path loss notices, whose remaining delay differs per
// flow and hop.
//
// Each step runs the eventBefore-minimum of the heap top and the L ring
// fronts through the same core handlers Reference drives, so every event
// but a delivery runs in Reference's global order. A delivery is left out
// of that order because it changes only its own flow's state (delivered
// counts, RTT sums, min RTT, budget completion, OnDeliver), and only two of
// that flow's other events read what it writes or write what it reads: the
// MI close, and a budgeted flow's transmission, which a completion turns
// stale. (A stop clears the same active bit a completion clears; the two
// commute.) So a flow's inbox is drained at these points only, in the
// flow's own order and with each delivery's own time:
//
//   - before the flow's MI boundary, every delivery strictly before it
//     (evMI ranks before evDeliver at one instant);
//   - before a budgeted flow's transmission, every delivery at or before it
//     (evDeliver ranks before evArrive, and a completing delivery stops the
//     flow's pacing);
//   - when an inbox is full, every delivery at or before the current event
//     (a packet leaving a last link is an evArrive, so Reference has run
//     those already) — an inbox therefore holds one flow's packets between
//     its last link and its receiver, not an MI's worth of deliveries;
//   - at the end of the run, every delivery at or before the duration.
//
// Each flow therefore sees Reference's per-flow event sequence, and every
// statistic is Reference's, bit for bit; only the interleaving of different
// flows' deliveries differs, and nothing observes it. The minimum is found
// by one scan over a dense array of the rings' front times, with the full
// eventBefore comparison only on an exact time tie. The scan is O(L) per
// event, and that is enough: at MaxLinks it costs about what one push + pop
// on a heap of in-flight packets costs, and the topologies this model
// targets have under ten links, so there is no second structure for large
// L. On a one-link topology the rings carry nothing and every step is a
// heap step.
//
// The ring invariant is checked, not assumed. Floating point can absorb a
// tiny 1/capacity or delay, so two packets may leave a link with the same
// stamp, and their canonical order is then by kind and flow, not by
// admission. Run therefore compares every push with its ring's tail,
// and a packet that does not sort strictly after it waits on the heap
// instead (the tie guard): rings stay strictly increasing, the heap orders
// anything, and the minimum over all of them is still the global one.
//
// Not safe for concurrent use.
type Engine struct {
	Topo  *Topology
	Flows []*Flow

	// Workers does nothing: the engine runs on one goroutine (the sharded
	// engine this field sized lost to its own serial mode on every machine
	// it was measured on, and is gone). The field is still here only
	// because bench/, which a change claiming a gain may not edit, assigns
	// it; it goes in the benchmark change that drops the
	// topo.sharded_pkts_per_s probe.
	Workers int

	core  core
	inbox []fifo[delivery] // per flow: deliveries not yet applied
	now   float64
	seed  int64

	// Event-source counters, read by the tests that pin the mechanism:
	// events run off the heap, events run off a ring, packets the tie
	// guard sent to the heap, and deliveries drained from the inboxes.
	heapPops, ringPops, tieFallbacks, drained int
}

// NewEngine creates a packet-train simulator over the topology. seed drives
// every link's random-loss process, exactly as in NewReference.
func NewEngine(t *Topology, seed int64) *Engine {
	return &Engine{Topo: t, seed: seed}
}

// AddFlow registers a flow; call before Run.
func (e *Engine) AddFlow(cfg FlowConfig) *Flow {
	cfg = applyFlowDefaults(e.Topo, cfg)
	f := &Flow{ID: len(e.Flows), Label: cfg.Label, Cfg: cfg}
	e.Flows = append(e.Flows, f)
	return f
}

// Now returns the current simulation time.
func (e *Engine) Now() float64 { return e.now }

// Run executes the simulation until the given duration (seconds). It may
// be called once per Engine.
func (e *Engine) Run(duration float64) {
	c := &e.core
	c.initRun(e.Topo, e.Flows, e.seed, duration)
	e.inbox = make([]fifo[delivery], len(e.Flows))
	// rings[i] holds the packets link i has admitted for a next hop;
	// front[i] is the time of its front entry, +Inf when empty — the dense
	// array the scan reads.
	rings := make([]fifo[event], len(c.links))
	front := make([]float64, len(c.links))
	for i := range front {
		front[i] = math.Inf(1)
	}

	for {
		// The earliest packet between two links: the minimum ring front.
		li, t := -1, math.Inf(1)
		for i, ft := range front {
			if ft < t || (ft == t && li >= 0 && eventBefore(rings[i].front(), rings[li].front())) {
				li, t = i, ft
			}
		}
		// A heap event preempts it when it sorts earlier.
		h := c.heap.top()
		fromHeap := h != nil && (li < 0 || h.time < t || (h.time == t && eventBefore(h, rings[li].front())))
		if fromHeap {
			t = h.time
		}
		if t > duration || (!fromHeap && li < 0) {
			break
		}
		var ev event
		if fromHeap {
			ev = c.heap.pop()
			e.heapPops++
		} else {
			r := &rings[li]
			ev = *r.front()
			r.pop()
			front[li] = math.Inf(1)
			if r.n > 0 {
				front[li] = r.front().time
			}
			e.ringPops++
		}
		e.now = t
		// Before an event, the flow's own deliveries that Reference runs
		// before it, where the event reads what they write.
		if ev.kind != evArrive {
			if ev.kind == evMI {
				e.drain(ev.flowID, t, false)
			}
			c.control(ev)
			continue
		}
		if ev.hop == 0 && c.st.budget[ev.flowID] > 0 {
			e.drain(ev.flowID, t, true)
		}
		at, from, last := c.arrive(ev)
		if from < 0 {
			continue
		}
		if last {
			// The packet has left its last link: it waits in its flow's
			// inbox, which a full one first empties of what is due.
			b := &e.inbox[ev.flowID]
			if b.full() {
				e.drain(ev.flowID, t, true)
			}
			b.push(delivery{time: at, sendTime: ev.sendTime})
			continue
		}
		// The packet has just left link `from` for the next hop. It waits
		// on that link's ring when it sorts strictly after the ring's tail,
		// which keeps the ring sorted, and on the heap otherwise (the tie
		// guard).
		pkt := event{time: at, kind: evArrive, flowID: ev.flowID, hop: ev.hop + 1, sendTime: ev.sendTime}
		r := &rings[from]
		switch {
		case r.n == 0:
			front[from] = pkt.time
		case !(pkt.time > r.back().time):
			e.tieFallbacks++
			c.heap.push(pkt)
			continue
		}
		r.push(pkt)
	}
	for id := range e.inbox {
		e.drain(int32(id), duration, true)
	}
	e.now = duration
	c.finishRun()
}

// drain applies, in order and each at its own time, the deliveries in flow
// id's inbox that Reference runs before an event at time t: those at or
// before t when through is set, those strictly before it otherwise.
func (e *Engine) drain(id int32, t float64, through bool) {
	b := &e.inbox[id]
	if b.n == 0 {
		return
	}
	st, f := e.core.st, e.core.flows[id]
	n := b.n
	for b.n > 0 {
		d := b.front()
		if d.time > t || (d.time == t && !through) {
			break
		}
		st.deliver(f, d.time, d.sendTime)
		b.pop()
	}
	e.drained += int(n - b.n)
}
