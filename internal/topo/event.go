package topo

// Event kinds, in same-timestamp priority order. The first three are
// netsim's control kinds with identical ranks; evDeliver keeps its rank so
// deliveries still precede same-instant transmissions; evLoss (a mid-path
// drop reaching the sender's accounting — netsim has no analogue) slots
// between them; evArrive is both a hop-0 transmission (netsim's evSend) and
// a packet arriving at a downstream link. On a one-link topology only
// Start/Stop/MI/Deliver/Arrive occur and the order degenerates to netsim's.
const (
	evStart int16 = iota
	evStop
	evMI
	evDeliver
	evLoss
	evArrive
)

// event is one scheduled simulator action. Unlike netsim's, it carries no
// flow pointer — flowID resolves against the run's flow slice — and adds
// the path hop index for multi-link traversals. It is the element of both
// the heap and the per-link rings, so it is packed to 24 bytes (MaxLinks
// bounds a loop-free path, and with it hop, far below int16).
type event struct {
	time     float64
	sendTime float64 // deliver/arrive payload: when the packet entered the network
	flowID   int32
	kind     int16
	hop      int16
}

// eventBefore is the canonical schedule order: time, then kind priority,
// then flow ID, then hop. Within one (time, kind, flow, hop) cell at most
// one live event exists (pacing instants, MI boundaries, and per-link
// departure times are all strictly increasing per flow), so the order is
// total — which is what makes the executed schedule independent of the
// structures the pending events wait in: any engine that always runs the
// eventBefore-minimum of everything pending runs the same schedule. Engine
// runs that minimum of everything but deliveries, which touch only their
// own flow's state and run in their flow's own order (see Engine).
func eventBefore(a, b *event) bool {
	if a.time != b.time {
		return a.time < b.time
	}
	if a.kind != b.kind {
		return a.kind < b.kind
	}
	if a.flowID != b.flowID {
		return a.flowID < b.flowID
	}
	return a.hop < b.hop
}

// eventQueue is an inline 4-ary min-heap of event values ordered by
// eventBefore (netsim's control-event heap). A pop does not restore the
// heap at once: it leaves the root slot open, and the next push fills it
// and sifts down. Nearly every popped event schedules exactly one successor
// — a flow's next pacing instant, its next MI boundary — so the common
// pop + push pair is one replace-top pass instead of a sift-down and a
// sift-up. An open root that no push filled is closed with the last leaf
// before the queue is looked at again.
type eventQueue struct {
	ev   []event
	open bool // the root was popped and its slot not yet refilled
}

// top returns the minimum event, valid until the next push, or nil when
// the queue is empty.
func (q *eventQueue) top() *event {
	if q.open {
		q.closeRoot()
	}
	if len(q.ev) == 0 {
		return nil
	}
	return &q.ev[0]
}

// closeRoot fills the open root with the last leaf.
func (q *eventQueue) closeRoot() {
	q.open = false
	n := len(q.ev) - 1
	last := q.ev[n]
	q.ev = q.ev[:n]
	if n > 0 {
		q.sink(last)
	}
}

// pop removes and returns the minimum event, leaving the root open; the
// queue must be non-empty.
func (q *eventQueue) pop() event {
	if q.open {
		q.closeRoot()
	}
	q.open = true
	return q.ev[0]
}

// push inserts e: into the open root when the last pop left one (the
// replace-top operation), at a new leaf otherwise.
func (q *eventQueue) push(e event) {
	if q.open {
		q.open = false
		q.sink(e)
		return
	}
	q.ev = append(q.ev, e)
	i := len(q.ev) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !eventBefore(&e, &q.ev[p]) {
			break
		}
		q.ev[i] = q.ev[p]
		i = p
	}
	q.ev[i] = e
}

// b2i is 1 for true and 0 for false; it compiles to a flag move, not a
// branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sink places e at the (vacant) root and sifts it down to its level. Which
// of four pacing instants comes first is not something a branch predictor
// can learn, so a full node's earliest child is found without branching on
// the answer: four independent loads of the children's times, a two-round
// tournament on them, the winner's index put together arithmetically (half
// the cost of a compare-and-branch scan, on 20 entries and on 20 000). The
// exact eventBefore scan runs only when two of the times are equal — the
// tournament cannot rank those — and on the last, partial node.
func (q *eventQueue) sink(e event) {
	ev := q.ev
	n := len(ev)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		kids := ev[first:min(first+4, n)]
		m := -1
		if len(kids) == 4 {
			t0, t1, t2, t3 := kids[0].time, kids[1].time, kids[2].time, kids[3].time
			lo, hi := min(t0, t1), min(t2, t3)
			a, b := b2i(t1 < t0), 2+b2i(t3 < t2)
			m = a + b2i(hi < lo)*(b-a)
			if t0 == t1 || t2 == t3 || lo == hi {
				m = -1
			}
		}
		if m < 0 {
			m = 0
			for c := 1; c < len(kids); c++ {
				if eventBefore(&kids[c], &kids[m]) {
					m = c
				}
			}
		}
		if !eventBefore(&kids[m], &e) {
			break
		}
		ev[i] = kids[m]
		i = first + m
	}
	ev[i] = e
}

// fifo is one of Engine's FIFO queues of packets in flight, each stamped
// with the time it leaves the queue: a link's ring of the events it has
// admitted for a next hop (netsim's deliveryRing, one per link) and a
// flow's inbox of the deliveries it has not yet applied. Entries are pushed
// in the order they are due — a link releases packets in strictly
// increasing order and each then adds the link's one delay — so the queue
// is sorted as it is filled; Engine.Run checks that for the rings and
// argues it for the inboxes. The buffer is allocated at the first push,
// doubles up to the queue's peak population and is reused thereafter; the
// 32-bit indices keep a 100k-flow incast's inboxes at 32 bytes a flow
// before their buffers.
type fifo[T any] struct {
	buf  []T // len zero or a power of two
	head int32
	n    int32
}

// full reports whether the next push has to grow the buffer.
func (q *fifo[T]) full() bool { return int(q.n) == len(q.buf) }

// front returns the earliest entry; the queue must be non-empty.
func (q *fifo[T]) front() *T { return &q.buf[q.head] }

// back returns the latest entry; the queue must be non-empty.
func (q *fifo[T]) back() *T { return &q.buf[(q.head+q.n-1)&int32(len(q.buf)-1)] }

// push appends v at the tail.
func (q *fifo[T]) push(v T) {
	if q.full() {
		q.grow()
	}
	q.buf[(q.head+q.n)&int32(len(q.buf)-1)] = v
	q.n++
}

// grow doubles the buffer, or allocates the first one: two entries, as
// most flows of a large incast never have more than a packet or two past
// their last link at once.
func (q *fifo[T]) grow() {
	grown := make([]T, max(2, 2*len(q.buf)))
	for i := range q.n {
		grown[i] = q.buf[(q.head+i)&int32(len(q.buf)-1)]
	}
	q.buf, q.head = grown, 0
}

// pop removes the earliest entry; the queue must be non-empty.
func (q *fifo[T]) pop() {
	q.head = (q.head + 1) & int32(len(q.buf)-1)
	q.n--
}

// delivery is one packet that has left the last link of its flow's path:
// when it reaches the receiver and when it entered the network. A flow's
// packets all leave the same last link, in admission order and at
// non-decreasing times, so its inbox is sorted as it is filled.
type delivery struct {
	time, sendTime float64
}
