package topo

// core is the simulation both engines share: the topology, the flow set
// with its SoA hot block, one linkState per link, the heap of pending
// control events, and every event handler. A handler pushes what it
// schedules for the sender side — the next pacing instant, the next MI
// boundary, a mid-path loss notice — on that heap itself; a packet it put
// on a wire it hands back to the caller, together with the link the packet
// just left. Where that packet waits for its next event is the engines' one
// difference: Reference pushes it on the same heap, Engine appends it to
// the link's FIFO ring. Because the handlers are the same code, the engines
// cannot drift: any schedule both execute in eventBefore order yields
// bit-identical state.
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
//
// evArrive moves one packet through one hop. Hop 0 is a transmission: it is
// paced, counted against the flow's send totals, and a drop there is
// charged immediately (exactly netsim's behaviour — the sender sits at its
// first link). Later hops only touch link state; a drop there reaches the
// sender's accounting as an evLoss notice stamped with the remaining
// propagation delay.
func (c *core) handle(e event) (pkt event, link int) {
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
	case evArrive:
		path := f.Cfg.Path
		li := path[e.hop]
		if e.hop == 0 {
			if st.flags[id]&flagActive == 0 {
				break // stale pacing event for a stopped or completed flow
			}
			st.sent[id]++
			st.miSent[id]++
			next := t + 1/max(st.rate[id], 0.1)
			c.heap.push(event{time: next, kind: evArrive, flowID: e.flowID, hop: 0, sendTime: next})
		}
		dep, ok := c.links[li].admit(t)
		switch {
		case ok && int(e.hop) == len(path)-1:
			return event{time: dep + c.links[li].cfg.Delay, kind: evDeliver, flowID: e.flowID, sendTime: e.sendTime}, li
		case ok:
			return event{time: dep + c.links[li].cfg.Delay, kind: evArrive, flowID: e.flowID, hop: e.hop + 1, sendTime: e.sendTime}, li
		case e.hop == 0:
			st.lost[id]++
			st.miLost[id]++
		default:
			c.heap.push(event{time: t + c.tailDelay(f, e.hop), kind: evLoss, flowID: e.flowID, hop: e.hop})
		}
	}
	return event{}, -1
}

// finishRun copies every flow's SoA slot into its exported result fields.
func (c *core) finishRun() {
	for _, f := range c.flows {
		c.st.finish(f)
	}
}
