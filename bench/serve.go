package main

import (
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/transport"
)

// serveShape is what distinguishes the two serve workloads: how many flows
// share the socket and how many reports are in flight in the closed loop.
type serveShape struct {
	flows    int
	inflight int
}

func runServeFleet(e *env) error  { return runServe(e, serveShape{flows: 4096, inflight: 64}) }
func runServeSparse(e *env) error { return runServe(e, serveShape{flows: 2, inflight: 2}) }

// probeFlows is how many flows' served rates are checked bit for bit
// against a shadow non-serving Library.
const probeFlows = 32

// prodDeadline is cmd/mocc-serve's -deadline default: a decision queued
// longer is shed in production. The benchmark's daemon does not shed there
// (servingOptions); it counts the exchanges that took longer
// (transport.client_over_deadline), which production would have shed.
const prodDeadline = 25 * time.Millisecond

// servingOptions are cmd/mocc-serve's flag defaults, except the decision
// deadline: 1 s instead of 25 ms. The code path is the default one (an
// enqueue timestamp per request, a deadline check per batch), but the whole
// process stalls for 25–100 ms about once a minute on this shared box, and
// under the default every stall sheds the 64 decisions in flight: 6 of 16
// runs of an unchanged program reported failed ops (README, Findings 5). A
// program that queues decisions past 25 ms still shows: in latency_p90_ms,
// which is gated, and by name in transport.client_over_deadline.
func servingOptions() mocc.ServingOptions {
	return mocc.ServingOptions{
		Deadline: time.Second,
		IdleTTL:  time.Minute,
		Canary:   &mocc.CanaryConfig{Window: 3 * time.Second, MaxFaultRate: 0.05},
	}
}

// safeMode is the library's default guard, except its stall threshold: 1 s
// instead of 250 ms, like the deadline above. The guard times every decision
// against the wall clock, so a stall of the whole process past 250 ms (one
// in about a hundred 18 s runs) counted a guard fault against each decision
// in flight.
func safeMode() mocc.SafeModeConfig {
	return mocc.SafeModeConfig{StallThreshold: time.Second}
}

// failover is the client's retry/fallback configuration: the defaults,
// except a 2 s reply timeout instead of 150 ms, for the same reason as the
// deadline above. A flow that times out fails over to its local AIMD
// controller and answers "instantly" for up to seconds, which turns one
// hypervisor stall into tens of thousands of failed ops.
func failover(seed int64) transport.FailoverConfig {
	return transport.FailoverConfig{Seed: seed, Timeout: 2 * time.Second}
}

// daemon is an in-process mocc-serve, composed as cmd/mocc-serve/daemon.go
// composes it — the same constructors and options in the same order, with
// the flag defaults except the deadline (servingOptions) and the guard's
// stall threshold (safeMode) — plus the one client socket.
type daemon struct {
	met  *mocc.Metrics
	lib  *mocc.Library
	srv  *transport.RateServer
	conn *transport.ServeConn
	done chan struct{} // closed when Serve returns

	started time.Time
}

func startDaemon(modelPath string) (*daemon, error) {
	model, err := mocc.LoadModelFile(modelPath)
	if err != nil {
		return nil, err
	}
	d := &daemon{met: mocc.NewMetrics(), done: make(chan struct{}), started: time.Now()}
	d.lib, err = mocc.New(model,
		mocc.WithServing(servingOptions()),
		mocc.WithSafeMode(safeMode()),
		mocc.WithObservability(mocc.ObservabilityOptions{Metrics: d.met}))
	if err != nil {
		return nil, err
	}
	sock, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		d.lib.Close()
		return nil, err
	}
	d.srv = transport.NewRateServer(d.lib, sock)
	d.srv.RegisterMetrics(d.met)
	go func() {
		defer close(d.done)
		d.srv.Serve()
	}()
	d.conn, err = transport.DialServe(d.srv.Addr(), transport.ServeConnConfig{})
	if err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// close tears down in the daemon's own order: client, rate server, library.
func (d *daemon) close() {
	if d.conn != nil {
		d.conn.Close()
	}
	d.srv.Close()
	<-d.done
	d.lib.Close()
}

// flowState is one flow's client handle plus the generator and the running
// hash of every rate it was served.
type flowState struct {
	flow *transport.ServeFlow
	gen  rng
	hash uint64
	n    int64
}

const hashInit = 14695981039346656037

func mixRate(h uint64, rate float64) uint64 {
	return (h ^ math.Float64bits(rate)) * 1099511628211
}

// fleet drives a daemon with a closed loop: inflight workers, each cycling
// a strided subset of the flows so no flow reports twice in a row.
type fleet struct {
	d      *daemon
	shape  serveShape
	seed   int64
	prefs  []mocc.Weights
	fs     []flowState
	cursor []int        // per worker: position in its strided subset
	rec    [][]sample   // per worker: the current chunk's samples (see reserve)
	bad    atomic.Int64 // served rates that were not finite and positive
	late   atomic.Int64 // exchanges slower than prodDeadline
}

func newFleet(d *daemon, shape serveShape, seed int64) *fleet {
	f := &fleet{
		d: d, shape: shape, seed: seed,
		prefs:  make([]mocc.Weights, shape.flows),
		fs:     make([]flowState, shape.flows),
		cursor: make([]int, shape.inflight),
	}
	pr := newRNG(seed, 0x9ef5)
	for i := range f.fs {
		f.prefs[i] = pr.pref()
		f.fs[i] = flowState{
			flow: d.conn.Flow(uint64(i+1), f.prefs[i], failover(seed)),
			gen:  newRNG(seed, uint64(i)),
			hash: hashInit,
		}
	}
	return f
}

// closedLoop runs shape.inflight workers until the deadline; a zero
// deadline means exactly one pass over every flow. Worker w visits flows
// w, w+inflight, w+2·inflight, ... cyclically and calls op for each visit
// with a request id that is unique within the loop (w + inflight·visit).
// op returns when its exchange completed. cursor, when non-nil, carries
// each worker's position from one loop to the next.
func closedLoop(shape serveShape, cursor []int, until time.Time, op func(w, flow int, req int32) (time.Time, error)) error {
	onePass := until.IsZero()
	var (
		wg       sync.WaitGroup
		firstErr atomic.Pointer[error]
	)
	for w := 0; w < shape.inflight; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx := 0
			if cursor != nil {
				idx = cursor[w]
			}
			req := int32(w)
			for {
				j := w + idx*shape.inflight
				if j >= shape.flows {
					idx = 0
					if onePass {
						break
					}
					continue
				}
				done, err := op(w, j, req)
				if err != nil {
					firstErr.CompareAndSwap(nil, &err)
					break
				}
				idx++
				req += int32(shape.inflight)
				if !onePass && !done.Before(until) {
					break
				}
			}
			if cursor != nil {
				cursor[w] = idx
			}
		}(w)
	}
	wg.Wait()
	if p := firstErr.Load(); p != nil {
		return *p
	}
	return nil
}

// drive runs the closed loop against the daemon. rec, when non-nil,
// receives one sample per exchange (per worker, preallocated by newRec);
// tr, when non-nil, a span. It returns the phase's wall time.
func (f *fleet) drive(until time.Time, rec [][]sample, tr *tracer) (time.Duration, error) {
	start := time.Now()
	err := closedLoop(f.shape, f.cursor, until, func(w, j int, req int32) (time.Time, error) {
		s := &f.fs[j]
		st := s.gen.status()
		t0 := time.Now()
		rate, err := s.flow.Report(st)
		t1 := time.Now()
		if err != nil {
			return t1, fmt.Errorf("ServeFlow.Report: %w", err)
		}
		if math.IsNaN(rate) || math.IsInf(rate, 0) || rate <= 0 {
			f.bad.Add(1)
		}
		s.hash = mixRate(s.hash, rate)
		s.n++
		lat := t1.Sub(t0)
		if lat > prodDeadline {
			f.late.Add(1)
		}
		if rec != nil {
			if lat > math.MaxUint32 {
				lat = math.MaxUint32
			}
			rec[w] = append(rec[w], sample{doneUs: uint32(t1.Sub(start) / time.Microsecond), latNs: uint32(lat)})
		}
		if tr != nil {
			tr.add(spServeFlowReport, t0, t1, req)
		}
		return t1, nil
	})
	return time.Since(start), err
}

// reserve preallocates the per-worker sample buffers for chunks of length
// d, sized for ten times today's rates so a timed chunk never grows them
// (their allocation would count against alloc_bytes_per_op).
func (f *fleet) reserve(d time.Duration) {
	perWorker := int(d.Seconds()*600e3)/f.shape.inflight + 1024
	if max := int(d.Seconds()*100e3) + 1024; perWorker > max {
		perWorker = max
	}
	f.rec = make([][]sample, f.shape.inflight)
	for w := range f.rec {
		f.rec[w] = make([]sample, 0, perWorker)
	}
}

// setupServe is everything a fresh user pays before the first steady-state
// exchange: write and load the model file, construct the library, listen,
// dial, create every flow and push the first report through each (which
// registers it in the daemon).
func setupServe(e *env, shape serveShape) (*fleet, error) {
	path := filepath.Join(e.dir, "model.json")
	if err := e.fix.model.Save(path); err != nil {
		return nil, err
	}
	d, err := startDaemon(path)
	if err != nil {
		return nil, err
	}
	f := newFleet(d, shape, e.cfg.seed)
	if _, err := f.drive(time.Time{}, nil, nil); err != nil {
		d.close()
		return nil, err
	}
	return f, nil
}

// timedChunk is one measured stretch of the closed loop: the drive, and the
// completed exchanges cut into windows. The sample buffers must have been
// sized by reserve, outside any measured region.
func (f *fleet) timedChunk(d time.Duration, tr *tracer) (chunk, error) {
	rec := f.rec
	for w := range rec {
		rec[w] = rec[w][:0]
	}
	c := chunk{c0: readCounters()}
	wall, err := f.drive(time.Now().Add(d), rec, tr)
	c.c1 = readCounters()
	if err != nil {
		return c, err
	}
	for _, r := range rec {
		c.ops += float64(len(r))
	}
	c.slices = windowSlices(rec, wall)
	return c, nil
}

func runServe(e *env, shape serveShape) error {
	su := &setups[*fleet]{
		setup:    func() (*fleet, error) { return setupServe(e, shape) },
		teardown: func(f *fleet) { f.d.close() },
	}
	f, err := su.first()
	if err != nil {
		return err
	}
	defer f.d.close()

	// Let caches fill, then drop what training and the discarded set-ups
	// left behind so the first timed windows do not pay for it.
	if _, err := f.drive(time.Now().Add(e.budget(0.05)), nil, nil); err != nil {
		return err
	}
	runtime.GC()

	if !e.cfg.trace {
		f.reserve(e.budget(1) / time.Duration(e.chunks()))
		err = timedPhase(e, su, f.timedChunk)
	} else {
		err = traceServe(e, f)
	}
	if err != nil {
		return err
	}
	return f.check(e)
}

// check runs the output checks of a serve workload: every exchange was
// answered by the daemon with a usable rate, nothing was shed, dropped or
// timed out, and the probe flows' rates are bit-identical to a shadow
// non-serving Library fed the same statuses.
func (f *fleet) check(e *env) error {
	var cl transport.ServeFlowStats
	var made int64
	for i := range f.fs {
		st := f.fs[i].flow.Stats()
		cl.Reports += st.Reports
		cl.Served += st.Served
		cl.Shed += st.Shed
		cl.Timeouts += st.Timeouts
		cl.Fallbacks += st.Fallbacks
		cl.FallbackReports += st.FallbackReports
		made += f.fs[i].n
	}
	ds := f.d.srv.Stats()
	ss := f.d.lib.ServingStats()
	fl := f.d.lib.FleetStats()

	// Each failed exchange is counted once, where the client sees it: not
	// answered by the daemon with a usable rate (shed, or decided by the
	// local fallback), an attempt that got no reply (which is also how a
	// datagram the daemon dropped, rejected or found malformed surfaces), a
	// guard fault other than the one every shed trips, an unusable rate.
	// Added to what the probes of the traced pass already counted.
	e.attempted += cl.Reports
	e.failed += cl.Reports - cl.Served + cl.Timeouts +
		max(0, fl.Faults-int64(ss.Shed())) + f.bad.Load()
	if e.tr != nil {
		e.set("transport.sessions", float64(ds.Sessions))
		e.set("transport.dropped", float64(ds.Dropped))
		e.set("transport.rejected", float64(ds.Rejected))
		e.set("transport.malformed", float64(ds.Malformed))
		e.set("transport.client_timeouts", float64(cl.Timeouts))
		e.set("transport.client_fallbacks", float64(cl.Fallbacks))
		e.set("transport.client_shed", float64(cl.Shed))
		e.set("transport.client_over_deadline", float64(f.late.Load()))
		e.set("mocc.guard_faults", float64(fl.Faults))
		e.set("mocc.fallback_active", float64(fl.FallbackActive))
		e.set("serve.shed_queue", float64(ss.ShedQueue))
		e.set("serve.shed_deadline", float64(ss.ShedDeadline))
	}
	if made != cl.Reports {
		e.wrong("client counted %d reports, the harness made %d", cl.Reports, made)
	}
	if cl.Served+cl.Shed+cl.FallbackReports != cl.Reports {
		e.wrong("served %d + shed %d + fallback %d != reports %d", cl.Served, cl.Shed, cl.FallbackReports, cl.Reports)
	}
	if n := f.bad.Load(); n > 0 {
		e.wrong("%d served rates were not finite and positive", n)
	}
	if e.failed > 0 {
		// A shed or guard fault legitimately changes what a flow is told;
		// the failure is already counted, the shadow would only repeat it.
		// Say when it happened, from what the daemon itself exports.
		for _, ev := range f.d.met.EventLog().Tail(8) {
			fmt.Fprintf(os.Stderr, "bench: daemon event %s at +%.3fs: %s\n", ev.Type, ev.Time.Sub(f.d.started).Seconds(), ev.Msg)
		}
		return nil
	}
	return f.shadowCheck(e)
}

func (f *fleet) shadowCheck(e *env) error {
	model, err := mocc.LoadModelFile(filepath.Join(e.dir, "model.json"))
	if err != nil {
		return err
	}
	shadow, err := mocc.New(model, mocc.WithoutAdaptation())
	if err != nil {
		return err
	}
	for i := 0; i < probeFlows && i < len(f.fs); i++ {
		app, err := shadow.Register(f.prefs[i])
		if err != nil {
			return err
		}
		gen := newRNG(f.seed, uint64(i))
		h := uint64(hashInit)
		for k := int64(0); k < f.fs[i].n; k++ {
			rate, err := app.Report(gen.status())
			if err != nil {
				return fmt.Errorf("shadow report: %w", err)
			}
			h = mixRate(h, rate)
		}
		if h != f.fs[i].hash {
			e.wrong("probe flow %d: %d served rates differ from the shadow library's", i+1, f.fs[i].n)
		}
	}
	return nil
}
