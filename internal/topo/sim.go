package topo

import "math/bits"

// core is the simulation both engines share: the topology, the flow set
// with its SoA hot block, one linkState per link, the heap of pending
// control events, and every event handler. A handler pushes what it
// schedules for the sender side — the next pacing instant, the next MI
// boundary, a mid-path loss notice — on that heap itself; a packet it put
// on a wire it hands back to the caller, together with the link the packet
// just left. Where that packet waits for its next event is the engines' one
// difference: Reference pushes it on the same heap, Engine appends it to
// the link's FIFO ring, or to its flow's inbox once it has left the last
// link. Because the handlers are the same code, the engines cannot drift:
// any schedule that runs each flow's events in eventBefore order, and every
// event but a delivery in that order across flows, yields bit-identical
// state.
type core struct {
	topo  *Topology
	flows []*Flow
	st    *soaState
	links []linkState
	heap  eventQueue
}

// initRun sizes the run state and seeds every flow's start/stop events.
func (c *core) initRun(t *Topology, flows []*Flow, seed int64, duration float64) {
	*c = core{topo: t, flows: flows, st: newSoaState(len(flows)), links: make([]linkState, len(t.Links))}
	for i, l := range t.Links {
		c.links[i] = newLinkState(l, i, seed)
	}
	// Room for every flow's stop and for its start, which becomes the
	// flow's next pacing instant and MI boundary once it runs, rounded up
	// to the next power of two: a large flow set does not regrow the heap
	// through append, and a small one, which mid-path loss notices can take
	// past this, regrows through the capacities append's doubling gives
	// anyway.
	n := 2 * len(flows)
	for _, f := range flows {
		if f.Cfg.Stop > f.Cfg.Start {
			n++
		}
	}
	c.heap.ev = make([]event, 0, 1<<bits.Len(uint(n)))
	for _, f := range flows {
		c.st.startRun(t, f, duration)
		c.heap.push(event{time: f.Cfg.Start, kind: evStart, flowID: int32(f.ID)})
		if f.Cfg.Stop > f.Cfg.Start {
			c.heap.push(event{time: f.Cfg.Stop, kind: evStop, flowID: int32(f.ID)})
		}
	}
}

// tailDelay is the propagation delay from the entrance of path hop h to
// the receiver — what a packet dropped entering hop h would still have
// traversed, and therefore how long the resulting gap takes to become
// observable at the endpoint.
func (c *core) tailDelay(f *Flow, hop int16) float64 {
	var d float64
	path := f.Cfg.Path
	for i := int(hop); i < len(path); i++ {
		d += c.topo.Links[path[i]].Delay
	}
	return d
}

// handle executes one event at time e.time. When the event put a packet on
// a wire it returns that packet's next event — evArrive at the next hop, or
// evDeliver at the receiver after the last — and the index of the link the
// packet just left; otherwise link is -1.
func (c *core) handle(e event) (pkt event, link int) {
	if e.kind != evArrive {
		c.control(e)
		return event{}, -1
	}
	at, link, last := c.arrive(e)
	switch {
	case link < 0:
		return event{}, -1
	case last:
		return event{time: at, kind: evDeliver, flowID: e.flowID, sendTime: e.sendTime}, link
	}
	return event{time: at, kind: evArrive, flowID: e.flowID, hop: e.hop + 1, sendTime: e.sendTime}, link
}

// control executes one event of a kind other than evArrive: none of them
// puts a packet on a wire.
func (c *core) control(e event) {
	f := c.flows[e.flowID]
	st := c.st
	id := int(e.flowID)
	t := e.time
	switch e.kind {
	case evStart:
		st.flags[id] |= flagActive
		st.miStart[id] = t
		c.heap.push(event{time: t, kind: evArrive, flowID: e.flowID, hop: 0, sendTime: t})
		c.heap.push(event{time: t + st.miDur[id], kind: evMI, flowID: e.flowID})
	case evStop:
		st.flags[id] &^= flagActive
		st.flags[id] |= flagStopped
	case evMI:
		// The per-MI Queue statistic is the backlog of the flow's home
		// link, the first of its path.
		backlog := c.links[f.Cfg.Path[0]].backlog(t)
		if st.closeMI(f, t, backlog) {
			c.heap.push(event{time: t + st.miDur[id], kind: evMI, flowID: e.flowID})
		}
	case evDeliver:
		st.deliver(f, t, e.sendTime)
	case evLoss:
		st.lost[id]++
		st.miLost[id]++
	}
}

// arrive executes one evArrive, which moves one packet through one hop.
// When the link admits the packet it returns the link's index, the time the
// packet reaches the next hop or — when last is set — the receiver, and
// otherwise link is -1. (It returns the parts of the packet's next event,
// not the event: a 24-byte result stored field by field and read back
// whole stalls the caller on store forwarding.) Hop 0 is a transmission:
// it is paced, counted against the flow's send totals, and a drop there is
// charged immediately (exactly netsim's behaviour — the sender sits at its
// first link). Later hops only touch link state; a drop there reaches the
// sender's accounting as an evLoss notice stamped with the remaining
// propagation delay.
func (c *core) arrive(e event) (at float64, link int, last bool) {
	f := c.flows[e.flowID]
	st := c.st
	id := int(e.flowID)
	t := e.time
	path := f.Cfg.Path
	li := path[e.hop]
	if e.hop == 0 {
		if st.flags[id]&flagActive == 0 {
			return 0, -1, false // stale pacing event for a stopped or completed flow
		}
		st.sent[id]++
		st.miSent[id]++
		next := t + st.gap[id]
		c.heap.push(event{time: next, kind: evArrive, flowID: e.flowID, hop: 0, sendTime: next})
	}
	dep, ok := c.links[li].admit(t)
	switch {
	case ok:
		return dep + c.links[li].cfg.Delay, li, int(e.hop) == len(path)-1
	case e.hop == 0:
		st.lost[id]++
		st.miLost[id]++
	default:
		c.heap.push(event{time: t + c.tailDelay(f, e.hop), kind: evLoss, flowID: e.flowID, hop: e.hop})
	}
	return 0, -1, false
}

// finishRun copies every flow's SoA slot into its exported result fields.
func (c *core) finishRun() {
	for _, f := range c.flows {
		c.st.finish(f)
	}
}
