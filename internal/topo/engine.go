package topo

import "math"

// Engine is the production topology simulator: netsim's packet-train scheme
// generalised to L links, on one goroutine.
//
// Every link owns one FIFO ring of the packets it has admitted, each
// stamped with the time it reaches the next hop or the receiver. A link is
// a FIFO fixed-rate server, so its departure times are strictly increasing,
// and every packet then adds the link's one constant delay: each ring is
// sorted as it is filled, and a hop costs one append and one removal at the
// ends of an array. The heap (core.heap) keeps only what is not FIFO —
// start/stop, MI boundaries, one pacing entry per active flow (re-keyed in
// place when it fires, see eventQueue) and mid-path loss notices, whose
// remaining delay differs per flow and hop.
//
// Each step runs the eventBefore-minimum of the heap top and the L ring
// fronts through the same core handlers Reference drives, so the executed
// schedule — and with it every statistic — is Reference's, bit for bit, by
// construction rather than by tuning. The minimum is found by one scan over
// a dense array of the rings' front times, with the full eventBefore
// comparison only on an exact time tie. The scan is O(L) per event, and
// that is enough: at MaxLinks it costs about what one push + pop on a heap
// of in-flight packets costs, and the topologies this model targets have
// under ten links, so there is no second structure for large L.
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

	core core
	now  float64
	seed int64

	// Event-source counters, read by the tests that pin the mechanism:
	// events run off the heap, events run off a ring, and packets the tie
	// guard sent to the heap.
	heapPops, ringPops, tieFallbacks int
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
	// rings[i] holds the packets link i has admitted; front[i] is the time
	// of its front entry, +Inf when empty — the dense array the scan reads.
	rings := make([]ring, len(c.links))
	front := make([]float64, len(c.links))
	for i := range front {
		front[i] = math.Inf(1)
	}

	for {
		// The earliest packet in flight: the minimum ring front.
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
		pkt, from := c.handle(ev)
		if from < 0 {
			continue
		}
		// The packet has just left link `from`. It waits on that link's
		// ring when it sorts strictly after the ring's tail, which keeps
		// the ring sorted, and on the heap otherwise (the tie guard).
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
	e.now = duration
	c.finishRun()
}
