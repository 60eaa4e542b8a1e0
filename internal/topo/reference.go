package topo

// Reference is the ground-truth engine: a classical per-packet
// discrete-event simulator driving the shared core handlers off one global
// heap, one event per hop traversal. It is deliberately the simplest
// possible execution of the event schedule — every pending event, packets
// in flight included, waits in the one heap — and the equivalence tests
// hold Engine to it bit-for-bit, mirroring netsim's
// Network/ReferenceNetwork contract.
//
// Not safe for concurrent use.
type Reference struct {
	Topo  *Topology
	Flows []*Flow

	core core
	now  float64
	seed int64
}

// NewReference creates a per-packet reference simulator over the topology.
// seed drives every link's random-loss process.
func NewReference(t *Topology, seed int64) *Reference {
	return &Reference{Topo: t, seed: seed}
}

// AddFlow registers a flow; call before Run.
func (r *Reference) AddFlow(cfg FlowConfig) *Flow {
	cfg = applyFlowDefaults(r.Topo, cfg)
	f := &Flow{ID: len(r.Flows), Label: cfg.Label, Cfg: cfg}
	r.Flows = append(r.Flows, f)
	return f
}

// Now returns the current simulation time.
func (r *Reference) Now() float64 { return r.now }

// Run executes the simulation until the given duration (seconds). It may
// be called once per Reference.
func (r *Reference) Run(duration float64) {
	c := &r.core
	c.initRun(r.Topo, r.Flows, r.seed, duration)
	for h := c.heap.top(); h != nil && h.time <= duration; h = c.heap.top() {
		e := c.heap.pop()
		r.now = e.time
		// A packet in flight waits on the heap like everything else.
		if pkt, link := c.handle(e); link >= 0 {
			c.heap.push(pkt)
		}
	}
	r.now = duration
	c.finishRun()
}
