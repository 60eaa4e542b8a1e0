package netsim

// Event kinds, in same-timestamp priority order: control transitions first
// (a flow stopping at t never transmits at t), then monitor-interval
// close-outs (a packet event at exactly the boundary belongs to the next
// interval), then deliveries, then transmissions. Both engines rank
// simultaneous events with this order, which — together with the flow-ID
// tiebreak — makes the schedule a total order and the simulation exactly
// reproducible across engines.
const (
	evStart int32 = iota
	evStop
	evMI
	evDeliver
	evSend
)

// event is one scheduled simulator action.
type event struct {
	time     float64
	kind     int32
	flowID   int32
	flow     *Flow
	sendTime float64 // deliver payload: when the packet entered the network
}

// eventBefore is the canonical schedule order: time, then kind priority,
// then flow ID. Within one (time, kind, flow) cell at most one live event
// exists in either engine (a flow has one pending send, one pending
// monitor-interval boundary, and strictly increasing delivery times), so
// the order is total.
func eventBefore(a, b event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	return a.flowID < b.flowID
}

// eventQueue is an inline 4-ary min-heap of event values ordered by
// eventBefore. Push and pop move plain structs — no interface boxing, no
// allocation beyond the amortized slice growth. The 4-ary layout halves the
// tree depth of a binary heap, trading cheap comparisons for the expensive
// cache misses of pointer-chasing deep sift paths.
type eventQueue struct {
	ev []event
}

// len returns the number of pending events.
func (q *eventQueue) len() int { return len(q.ev) }

// peek returns the minimum event; the queue must be non-empty.
func (q *eventQueue) peek() event { return q.ev[0] }

// push inserts e.
func (q *eventQueue) push(e event) {
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(q.ev[i], q.ev[p]) {
			break
		}
		q.ev[i], q.ev[p] = q.ev[p], q.ev[i]
		i = p
	}
}

// pop removes and returns the minimum event; the queue must be non-empty.
func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // drop the Flow pointer for the garbage collector
	q.ev = q.ev[:n]
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if eventBefore(q.ev[c], q.ev[min]) {
				min = c
			}
		}
		if !eventBefore(q.ev[min], q.ev[i]) {
			break
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
	return top
}

// delivery is one in-flight packet: it left the bottleneck queue and arrives
// at the receiver at time t.
type delivery struct {
	t        float64
	sendTime float64
	flow     *Flow
}

// deliveryRing is a growable FIFO of in-flight packets. Departure times are
// strictly increasing at a shared FIFO bottleneck and every packet adds the
// same propagation delay, so deliveries across all flows form a single
// global FIFO — one ring buffer replaces the seed engine's
// one-heap-event-per-packet delivery design. The ring doubles up to the
// peak in-flight population and is reused thereafter: zero steady-state
// allocations.
//
// Contract: this is exactly the package's single-bottleneck assumption.
// Push order equals delivery order only because every packet is serialized
// through ONE fixed-rate server and then adds ONE shared propagation delay;
// with per-flow paths over multiple links, deliveries interleave and the
// ring would reorder them. Multi-link simulation therefore lives in
// internal/topo (the same idea, one such ring per link), not here.
type deliveryRing struct {
	buf  []delivery
	head int
	n    int
}

// len returns the number of in-flight packets.
func (r *deliveryRing) len() int { return r.n }

// front returns the earliest pending delivery; the ring must be non-empty.
func (r *deliveryRing) front() delivery { return r.buf[r.head] }

// push appends a delivery at the FIFO tail.
func (r *deliveryRing) push(d delivery) {
	if r.n == len(r.buf) {
		grown := make([]delivery, max(64, 2*len(r.buf)))
		for i := 0; i < r.n; i++ {
			grown[i] = r.buf[(r.head+i)%len(r.buf)]
		}
		r.buf = grown
		r.head = 0
	}
	r.buf[(r.head+r.n)%len(r.buf)] = d
	r.n++
}

// pop removes and returns the earliest pending delivery; the ring must be
// non-empty.
func (r *deliveryRing) pop() delivery {
	d := r.buf[r.head]
	r.buf[r.head].flow = nil
	r.head = (r.head + 1) % len(r.buf)
	r.n--
	return d
}
