// Package topo generalizes the single-bottleneck netsim simulator to a
// small DAG of links: named bottlenecks with individual capacity schedules,
// one-way delays, drop-tail queues and random-loss processes, crossed by
// flows whose paths traverse one or more links in order (access link →
// shared core → per-flow egress covers parking-lot fairness and the
// multipath literature). Every link is the same FIFO fixed-rate server with
// a virtual queue that netsim models — a packet arriving at a link at time
// t departs at max(t, lastDeparture)+1/capacity and is dropped when the
// backlog exceeds the buffer — so a one-link topology reproduces
// netsim.Network bit-for-bit (pinned by the equivalence tests).
//
// Two engines share the flow/link types, the event handlers and all
// accounting arithmetic (core). Reference is the ground truth: a classical
// per-packet discrete-event simulator over one global heap, one event per
// hop traversal. Engine is the production engine, netsim's packet-train
// scheme with one ring per link and one inbox per flow: a FIFO fixed-rate
// server releases packets in strictly increasing order and each then adds
// the link's one delay, so the packets a link has admitted for a next hop
// wait in a FIFO ring that is sorted as it is filled, the packets that have
// left the last link of their path wait the same way in their flow's inbox,
// and the heap keeps only what is not FIFO (start/stop, MI boundaries, one
// pacing entry per flow, loss notices). Each step runs the earliest of the
// heap top and the ring fronts, so every event but a delivery runs in the
// one order eventBefore defines. A delivery changes only its own flow's
// state, so Engine applies a flow's inbox only where that state is read —
// before the flow's MI close, before a budgeted flow's transmission, when
// the inbox is full and at the end of the run — each delivery at its own
// time, in the flow's own order. Every flow thus runs the event sequence
// Reference runs for it, on one goroutine, and a fixed seed gives
// bit-identical statistics on either engine.
//
// Per-flow hot state lives in a structure-of-arrays block (soaState) sized
// once per run, so 10k-100k-flow incast and flash-crowd scenarios allocate
// O(flows), not O(packets), and simulate in seconds.
package topo

import (
	"fmt"
	"math"
	"math/rand"

	"mocc/internal/cc"
	"mocc/internal/netsim"
	"mocc/internal/trace"
)

// MIStat is one monitor interval of one flow — the same statistics record
// netsim produces, so per-MI series from the two simulators diff directly.
type MIStat = netsim.MIStat

// LinkConfig describes one bottleneck link of the topology.
type LinkConfig struct {
	// Name identifies the link in paths and diagnostics.
	Name string
	// Capacity is the service rate schedule in packets/second.
	Capacity trace.Bandwidth
	// Delay is the link's one-way propagation delay in seconds, which a
	// packet pays after being serviced. It must be > 0.
	Delay float64
	// QueuePkts is the drop-tail buffer size in packets (0 selects the
	// netsim default of 1000).
	QueuePkts int
	// LossRate is the link's random (non-congestive) loss probability.
	LossRate float64
}

// Topology is a validated set of links flows reference by index.
type Topology struct {
	Links []LinkConfig

	index map[string]int
}

// MaxLinks bounds the topology size: the engine scans one ring front per
// link per event, and the model targets small DAGs (access/core/egress
// tiers), not full fabrics.
const MaxLinks = 256

// New validates the link set and builds a Topology.
func New(links []LinkConfig) (*Topology, error) {
	if len(links) == 0 {
		return nil, fmt.Errorf("topo: at least one link is required")
	}
	if len(links) > MaxLinks {
		return nil, fmt.Errorf("topo: %d links exceed the %d-link limit", len(links), MaxLinks)
	}
	t := &Topology{Links: links, index: make(map[string]int, len(links))}
	for i, l := range links {
		if l.Name == "" {
			return nil, fmt.Errorf("topo: link %d needs a name", i)
		}
		if prev, dup := t.index[l.Name]; dup {
			return nil, fmt.Errorf("topo: duplicate link name %q (links %d and %d)", l.Name, prev, i)
		}
		if l.Capacity == nil {
			return nil, fmt.Errorf("topo: link %q needs a capacity schedule", l.Name)
		}
		if !(l.Delay > 0) || math.IsInf(l.Delay, 0) || math.IsNaN(l.Delay) {
			return nil, fmt.Errorf("topo: link %q delay %g must be a finite positive duration", l.Name, l.Delay)
		}
		if l.LossRate < 0 || l.LossRate >= 1 || math.IsNaN(l.LossRate) {
			return nil, fmt.Errorf("topo: link %q loss rate %g must lie in [0, 1)", l.Name, l.LossRate)
		}
		t.index[l.Name] = i
	}
	return t, nil
}

// Index returns the position of the named link, or -1 when absent.
func (t *Topology) Index(name string) int {
	if i, ok := t.index[name]; ok {
		return i
	}
	return -1
}

// PathDelay sums the one-way propagation delay along a path of link
// indices; half the path's base RTT.
func (t *Topology) PathDelay(path []int) float64 {
	var d float64
	for _, li := range path {
		d += t.Links[li].Delay
	}
	return d
}

// CheckPath validates one flow path against the topology: non-empty,
// in-range indices, and no link visited twice.
func (t *Topology) CheckPath(path []int) error {
	if len(path) == 0 {
		return fmt.Errorf("topo: a flow path needs at least one link")
	}
	seen := make(map[int]bool, len(path))
	for _, li := range path {
		if li < 0 || li >= len(t.Links) {
			return fmt.Errorf("topo: path references link index %d (topology has %d links)", li, len(t.Links))
		}
		if seen[li] {
			return fmt.Errorf("topo: path visits link %q twice (paths must be loop-free)", t.Links[li].Name)
		}
		seen[li] = true
	}
	return nil
}

// CheckDAG verifies that the union of all paths' link-to-link hops induces
// a directed acyclic graph — the topology contract stated in the scenario
// schema. (The engines themselves only need positive link delays; the DAG
// requirement keeps specs physically meaningful.)
func (t *Topology) CheckDAG(paths [][]int) error {
	n := len(t.Links)
	adj := make([][]int, n)
	indeg := make([]int, n)
	type edge struct{ a, b int }
	seen := make(map[edge]bool)
	for _, p := range paths {
		for i := 1; i < len(p); i++ {
			e := edge{p[i-1], p[i]}
			if e.a == e.b || seen[e] {
				continue
			}
			seen[e] = true
			adj[e.a] = append(adj[e.a], e.b)
			indeg[e.b]++
		}
	}
	// Kahn's algorithm; whatever survives the peel is (part of) a cycle.
	queue := make([]int, 0, n)
	for i := 0; i < n; i++ {
		if indeg[i] == 0 {
			queue = append(queue, i)
		}
	}
	done := 0
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		done++
		for _, w := range adj[v] {
			if indeg[w]--; indeg[w] == 0 {
				queue = append(queue, w)
			}
		}
	}
	if done != n {
		var cyc []string
		for i := 0; i < n; i++ {
			if indeg[i] > 0 {
				cyc = append(cyc, t.Links[i].Name)
			}
		}
		return fmt.Errorf("topo: flow paths induce a cycle through links %v (the link graph must be a DAG)", cyc)
	}
	return nil
}

// FlowConfig describes one flow; the analogue of netsim.FlowConfig with a
// multi-link path.
type FlowConfig struct {
	// Label names the flow in results (defaults to the algorithm name).
	Label string
	// Alg is the congestion controller driving the flow.
	Alg cc.Algorithm
	// Path is the ordered list of link indices the flow traverses. The
	// first link is the flow's home: its sender-side bottleneck, whose
	// backlog the per-MI Queue statistic reports.
	Path []int
	// Start and Stop bound the flow's active period in seconds
	// (Stop = 0 means run until the simulation ends).
	Start, Stop float64
	// MIms is the monitor-interval length in milliseconds (default: one
	// base path RTT, floored at 10ms).
	MIms float64
	// PacketBudget ends the flow after this many delivered packets
	// (0 = unlimited).
	PacketBudget int
	// MaxRate caps the pacing rate in packets/second; 0 selects 4x the
	// path's minimum link capacity at time 0.
	MaxRate float64
	// Seed drives the algorithm's internal randomness.
	Seed int64
}

// Flow is one sender-receiver pair. Result fields are valid after Run; the
// exported surface mirrors netsim.Flow so downstream summarizers and
// differential tests treat both simulators uniformly.
type Flow struct {
	ID    int
	Label string
	Cfg   FlowConfig

	// Stats holds one entry per completed monitor interval.
	Stats []MIStat
	// Totals over the whole run.
	SentTotal, DeliveredTotal, LostTotal int
	// Completed / CompletionTime report PacketBudget termination.
	Completed      bool
	CompletionTime float64
	// RTT of every delivered packet is aggregated here.
	SumRTT float64

	// OnDeliver, when set, is invoked once per delivered packet with the
	// delivery time, in the flow's own delivery order. Reference calls it
	// as each delivery runs; Engine calls it when it drains the flow's
	// inbox — at the flow's next MI close, a budgeted flow's next
	// transmission, a full inbox or the end of the run — so the calls of
	// different flows interleave differently on the two engines and the
	// simulation clock may already be past the time passed in.
	OnDeliver func(t float64)
}

// InFlight returns packets sent but neither delivered nor lost by run end:
// in a queue, on a wire, or dropped with the loss still propagating to the
// receiver when the simulation stopped.
func (f *Flow) InFlight() int {
	return f.SentTotal - f.DeliveredTotal - f.LostTotal
}

// flow state flag bits.
const (
	flagActive uint8 = 1 << iota
	flagStopped
	flagCompleted
)

// soaState is the structure-of-arrays flow-state block: one slice per hot
// field, indexed by flow ID. Both engines drive the same accounting methods
// over it, and the layout keeps a 100k-flow run's working set linear scans
// over dense float64/int64 arrays instead of 100k scattered structs.
type soaState struct {
	rate     []float64 // current pacing rate (pkts/s)
	gap      []float64 // pacing gap 1/max(rate, 0.1), set with rate
	miStart  []float64 // current monitor interval's start time
	miRTTSum []float64 // RTT accumulated over the current MI
	sumRTT   []float64 // RTT accumulated over the whole run
	minRTT   []float64 // minimum RTT observed so far
	complete []float64 // completion time (budgeted flows)
	pathOWD  []float64 // one-way propagation delay along the path
	maxRate  []float64 // pacing-rate cap
	miDur    []float64 // monitor-interval length (s)

	sent, delivered, lost       []int64 // run totals
	miSent, miDelivered, miLost []int64 // current-MI accumulators
	budget                      []int64 // packet budget (0 = unlimited)
	flags                       []uint8
}

// newSoaState allocates every field for n flows in one shot.
func newSoaState(n int) *soaState {
	f := make([]float64, 10*n)
	i := make([]int64, 7*n)
	return &soaState{
		rate:     f[0*n : 1*n],
		miStart:  f[1*n : 2*n],
		miRTTSum: f[2*n : 3*n],
		sumRTT:   f[3*n : 4*n],
		minRTT:   f[4*n : 5*n],
		complete: f[5*n : 6*n],
		pathOWD:  f[6*n : 7*n],
		maxRate:  f[7*n : 8*n],
		miDur:    f[8*n : 9*n],
		gap:      f[9*n : 10*n],

		sent:        i[0*n : 1*n],
		delivered:   i[1*n : 2*n],
		lost:        i[2*n : 3*n],
		miSent:      i[3*n : 4*n],
		miDelivered: i[4*n : 5*n],
		miLost:      i[5*n : 6*n],
		budget:      i[6*n : 7*n],

		flags: make([]uint8, n),
	}
}

// applyFlowDefaults normalizes a FlowConfig against the topology, mirroring
// netsim.newFlow: the MI defaults to one base path RTT (≥ 10ms) and the
// rate cap to 4x the path's minimum time-0 capacity (not the first link's
// alone — the binding constraint on a multi-link path is its narrowest
// bottleneck).
func applyFlowDefaults(t *Topology, cfg FlowConfig) FlowConfig {
	if cfg.Alg == nil {
		panic("topo: FlowConfig.Alg is required")
	}
	if err := t.CheckPath(cfg.Path); err != nil {
		panic(err)
	}
	if cfg.MIms <= 0 {
		cfg.MIms = math.Max(10, 2*t.PathDelay(cfg.Path)*1000)
	}
	if cfg.MaxRate <= 0 {
		minCap := math.Inf(1)
		for _, li := range cfg.Path {
			if c := t.Links[li].Capacity.At(0); c < minCap {
				minCap = c
			}
		}
		cfg.MaxRate = 4 * minCap
	}
	if cfg.Label == "" {
		cfg.Label = cfg.Alg.Name()
	}
	return cfg
}

// startRun initializes flow f's state slot for a fresh run and pre-sizes
// its per-MI statistics, mirroring netsim.Flow.startRun, except that the
// capacity covers the flow's active window — from its start to its stop or
// the horizon — rather than the whole horizon.
func (st *soaState) startRun(t *Topology, f *Flow, duration float64) {
	id := f.ID
	st.pathOWD[id] = t.PathDelay(f.Cfg.Path)
	st.maxRate[id] = f.Cfg.MaxRate
	st.miDur[id] = f.Cfg.MIms / 1000
	st.budget[id] = int64(f.Cfg.PacketBudget)
	st.minRTT[id] = math.Inf(1)
	f.Cfg.Alg.Reset(f.Cfg.Seed)
	st.setRate(id, math.Min(f.Cfg.Alg.InitialRate(2*st.pathOWD[id]), st.maxRate[id]))
	if mis := duration / st.miDur[id]; mis > 0 && mis < 1<<20 {
		end := duration
		if f.Cfg.Stop > f.Cfg.Start {
			end = min(end, f.Cfg.Stop)
		}
		f.Stats = make([]MIStat, 0, int(max(end-f.Cfg.Start, 0)/st.miDur[id])+2)
	}
}

// setRate sets flow id's pacing rate and the gap between its packets, so a
// transmission adds the gap instead of dividing by the rate.
func (st *soaState) setRate(id int, rate float64) {
	st.rate[id] = rate
	st.gap[id] = 1 / max(rate, 0.1)
}

// deliver records one packet arrival at the receiver at time now. The RTT
// is the measured one-way trip plus the path's return propagation delay,
// exactly as netsim charges OWD for the reverse path.
func (st *soaState) deliver(f *Flow, now, sendTime float64) {
	id := f.ID
	st.delivered[id]++
	st.miDelivered[id]++
	rtt := (now - sendTime) + st.pathOWD[id]
	st.miRTTSum[id] += rtt
	st.sumRTT[id] += rtt
	if rtt < st.minRTT[id] {
		st.minRTT[id] = rtt
	}
	if f.OnDeliver != nil {
		f.OnDeliver(now)
	}
	if st.budget[id] > 0 && st.delivered[id] >= st.budget[id] && st.flags[id]&flagCompleted == 0 {
		st.flags[id] |= flagCompleted
		st.flags[id] &^= flagActive
		st.complete[id] = now
	}
}

// closeMI closes one monitor interval of flow f at time now; backlog is the
// flow's home-link queue at now. It returns false when the flow no longer
// monitors. The arithmetic is kept in lockstep with netsim.Flow.closeMI so
// one-link topologies reproduce netsim bit-for-bit.
func (st *soaState) closeMI(f *Flow, now, backlog float64) bool {
	id := f.ID
	if st.flags[id]&flagStopped != 0 ||
		(st.flags[id]&flagCompleted != 0 && st.flags[id]&flagActive == 0) {
		return false
	}
	owd := st.pathOWD[id]
	d := now - st.miStart[id]
	if d <= 0 {
		d = st.miDur[id]
	}
	sent := float64(st.miSent[id])
	delivered := float64(st.miDelivered[id])
	lost := float64(st.miLost[id])
	avgRTT := 0.0
	if st.miDelivered[id] > 0 {
		avgRTT = st.miRTTSum[id] / delivered
	} else if !math.IsInf(st.minRTT[id], 1) {
		avgRTT = st.minRTT[id]
	} else {
		avgRTT = 2 * owd
	}
	lossRate := 0.0
	if sent > 0 {
		lossRate = lost / sent
	}
	minRTT := st.minRTT[id]
	if math.IsInf(minRTT, 1) {
		minRTT = 2 * owd
	}

	stat := MIStat{
		Time:       now,
		SendRate:   st.rate[id],
		Throughput: delivered / d,
		AvgRTT:     avgRTT,
		LossRate:   lossRate,
		Sent:       sent,
		Delivered:  delivered,
		Lost:       lost,
		Queue:      backlog,
	}
	f.Stats = append(f.Stats, stat)

	report := cc.Report{
		Duration:   d,
		Sent:       sent,
		Delivered:  delivered,
		Lost:       lost,
		SendRate:   st.rate[id],
		Throughput: stat.Throughput,
		AvgRTT:     avgRTT,
		MinRTT:     minRTT,
		LossRate:   lossRate,
	}
	rate := f.Cfg.Alg.Update(report)
	if math.IsNaN(rate) || rate <= 0 {
		rate = 0.5
	}
	if rate > st.maxRate[id] {
		rate = st.maxRate[id]
	}
	st.setRate(id, rate)

	st.miSent[id], st.miDelivered[id], st.miLost[id] = 0, 0, 0
	st.miRTTSum[id] = 0
	st.miStart[id] = now
	return true
}

// finish copies a flow's SoA slot into its exported result fields.
func (st *soaState) finish(f *Flow) {
	id := f.ID
	f.SentTotal = int(st.sent[id])
	f.DeliveredTotal = int(st.delivered[id])
	f.LostTotal = int(st.lost[id])
	f.Completed = st.flags[id]&flagCompleted != 0
	f.CompletionTime = st.complete[id]
	f.SumRTT = st.sumRTT[id]
}

// linkState is one bottleneck's runtime state, shared by both engines: the
// virtual-queue horizon, the devirtualized capacity sampler, the service
// time of the last sampled capacity and the per-link random-loss stream.
type linkState struct {
	cfg     LinkConfig
	capac   trace.Sampler
	rng     *rand.Rand
	lastDep float64
	queue   float64
	capRaw  float64 // the capacity svc was computed from (NaN: none yet)
	svc     float64 // 1/max(capRaw, 0.1): one packet's service time
}

// newLinkState normalizes the config (netsim's 1000-packet queue default)
// and seeds the per-link RNG. Link 0 draws from the run seed itself so a
// one-link topology consumes the exact loss stream netsim would; further
// links fold their index in through a splitmix-style odd multiplier.
func newLinkState(l LinkConfig, idx int, seed int64) linkState {
	q := l.QueuePkts
	if q <= 0 {
		q = 1000
	}
	s := seed
	if idx > 0 {
		s = seed ^ int64(uint64(idx)*0x9E3779B97F4A7C15)
	}
	return linkState{
		cfg:    l,
		capac:  trace.NewSampler(l.Capacity),
		rng:    rand.New(rand.NewSource(s)),
		queue:  float64(q),
		capRaw: math.NaN(),
	}
}

// admit offers one packet to the link at time t: it either assigns a
// departure time off the virtual queue or reports a drop (random loss or
// buffer overflow). The operation order matches netsim.Network.transmit
// exactly — capacity sampled and backlog priced before the loss draw, the
// draw consumed whenever the link has a loss process. The service time is
// divided out only when the sampled capacity changes (a NaN capacity never
// compares equal, so it is recomputed every time). (The builtin max is
// math.Max to the bit, NaN and signed zeros included, compiled in line
// where math.Max is an assembly call.)
func (l *linkState) admit(t float64) (dep float64, ok bool) {
	capRaw := l.capac.At(t)
	if capRaw != l.capRaw {
		l.capRaw, l.svc = capRaw, 1/max(capRaw, 0.1)
	}
	backlog := (l.lastDep - t) * capRaw
	if l.cfg.LossRate > 0 && l.rng.Float64() < l.cfg.LossRate {
		return 0, false // random (non-congestive) loss
	}
	if backlog >= l.queue {
		return 0, false // drop-tail: buffer full
	}
	dep = max(t, l.lastDep) + l.svc
	l.lastDep = dep
	return dep, true
}

// backlog returns the link's queue occupancy in packets at time t.
func (l *linkState) backlog(t float64) float64 {
	b := (l.lastDep - t) * l.capac.At(t)
	if b < 0 {
		return 0
	}
	return b
}
