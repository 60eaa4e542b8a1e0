package main

import (
	"errors"
	"fmt"
	"math"
	"net"
	"path/filepath"
	"runtime"
	"sync/atomic"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/core"
	"mocc/internal/datapath"
	"mocc/internal/objective"
	"mocc/internal/obs"
	"mocc/internal/serve"
)

// perOpNs times fn in blocks of n calls until the budget is spent (at least
// five blocks) and returns the median nanoseconds per call — for layers too
// fast to give each call its own span.
func perOpNs(budget time.Duration, n int, fn func()) float64 {
	var blocks []float64
	start := time.Now()
	for len(blocks) < 5 || time.Since(start) < budget {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		blocks = append(blocks, float64(time.Since(t0))/float64(n))
	}
	return median(blocks)
}

// ccReport converts a public Status into the controller's report, as
// mocc.Status does internally.
func ccReport(st mocc.Status) cc.Report {
	d := st.Duration.Seconds()
	return cc.Report{
		Duration: d, Sent: st.PacketsSent, Delivered: st.PacketsAcked, Lost: st.PacketsLost,
		SendRate: st.PacketsSent / d, Throughput: st.PacketsAcked / d,
		AvgRTT: st.AvgRTT.Seconds(), MinRTT: st.MinRTT.Seconds(),
		LossRate: st.PacketsLost / st.PacketsSent,
	}
}

func toObjective(w mocc.Weights) objective.Weights {
	return objective.Weights{Thr: w.Thr, Lat: w.Lat, Loss: w.Loss}
}

// traceServe is the traced pass of a serve workload: an untraced and a
// traced stretch of the main loop (their difference is what tracing
// costs), the live daemon's counters, then each layer below
// ServeFlow.Report replayed on its own with the same generated statuses
// and the same number of calls in flight.
func traceServe(e *env, f *fleet) error {
	e.startTrace()
	f.reserve(e.budget(traceChunk))
	if err := e.traceOverhead(e.budget(0.5), f.timedChunk); err != nil {
		return err
	}

	ss := f.d.lib.ServingStats()
	avgBatch := float64(ss.Reports) / math.Max(1, float64(ss.Batches))
	e.set("serve.avg_batch", avgBatch)
	e.set("serve.max_batch", float64(ss.MaxBatch))
	reg := f.d.met.Registry()
	flushes := map[string]float64{}
	var total float64
	for _, cause := range []string{"full", "interval", "eager", "drain"} {
		v := float64(reg.Counter(`mocc_serve_flushes_total{cause="`+cause+`"}`, "").Value())
		flushes[cause] = v
		total += v
	}
	if total > 0 {
		e.set("serve.flush_full_share", 100*flushes["full"]/total)
		e.set("serve.flush_interval_share", 100*flushes["interval"]/total)
		e.set("serve.flush_eager_share", 100*flushes["eager"]/total)
	}

	if err := probeTransportRegister(e, f); err != nil {
		return err
	}
	path := filepath.Join(e.dir, "model.json")
	cm, err := loadCoreModel(path)
	if err != nil {
		return err
	}
	b := e.budget(0.04)
	steps := []func() error{
		func() error { return probeAppReport(e, f, path, b) },
		func() error { return probeClientAct(e, f, cm, b) },
		func() error { return probeActBatch(e, f, cm, int(math.Round(avgBatch)), b) },
		func() error { return probeUDPEcho(e, b) },
		func() error { return probeCodec(e, b) },
		func() error { return probeRegister(e, path) },
	}
	for _, step := range steps {
		if err := step(); err != nil {
			return err
		}
	}

	st := e.tr.stats()
	e.set("transport.client_rtt_us", st[spServeFlowReport].medianUs)
	e.set("transport.client_rtt_p99_us", st[spServeFlowReport].p99Us)
	e.set("transport.server_self_us", st[spServeFlowReport].selfUs)
	e.set("transport.udp_echo_us", st[spUDPEcho].medianUs)
	e.set("mocc.report_us", st[spAppReport].medianUs)
	e.set("mocc.report_self_us", st[spAppReport].selfUs)
	e.set("serve.act_us", st[spClientAct].medianUs)
	e.set("serve.queue_wait_us", st[spClientAct].selfUs)
	return nil
}

// probeTransportRegister times the first report of new flows on the live
// daemon: lazy registration in RateServer plus Library.Register.
func probeTransportRegister(e *env, f *fleet) error {
	gen := newRNG(e.cfg.seed, 0x4e9)
	durs := make([]float64, 64)
	for i := range durs {
		flow := f.d.conn.Flow(uint64(1<<32+i), gen.pref(), failover(e.cfg.seed))
		t0 := time.Now()
		if _, err := flow.Report(gen.status()); err != nil {
			return err
		}
		durs[i] = float64(time.Since(t0)) / 1e3
		// These flows are not in f.fs; fleet.check adds to both counts.
		e.attempted++
		if st := flow.Stats(); st.Served != 1 {
			e.failed++
		}
	}
	e.set("transport.register_us", median(durs))
	return nil
}

// appLoop drives App.Report on lib with the workload's shape and returns
// the per-call durations in microseconds. With tr set each call is also a
// span.
func appLoop(f *fleet, lib *mocc.Library, budget time.Duration, tr *tracer) (durs []float64, mallocsPerOp float64, err error) {
	apps := make([]*mocc.App, f.shape.flows)
	gens := make([]rng, f.shape.flows)
	for i := range apps {
		if apps[i], err = lib.Register(f.prefs[i]); err != nil {
			return nil, 0, err
		}
		gens[i] = newRNG(f.seed, uint64(i))
	}
	perWorker := make([][]float64, f.shape.inflight)
	for w := range perWorker {
		perWorker[w] = make([]float64, 0, 1<<13)
	}
	runtime.GC()
	c0 := readCounters()
	err = closedLoop(f.shape, nil, time.Now().Add(budget), func(w, j int, req int32) (time.Time, error) {
		st := gens[j].status()
		t0 := time.Now()
		_, err := apps[j].Report(st)
		t1 := time.Now()
		if err != nil {
			return t1, err
		}
		perWorker[w] = append(perWorker[w], float64(t1.Sub(t0))/1e3)
		if tr != nil {
			tr.add(spAppReport, t0, t1, req)
		}
		return t1, nil
	})
	c1 := readCounters()
	for _, p := range perWorker {
		durs = append(durs, p...)
	}
	if len(durs) == 0 {
		return nil, 0, errors.New("App.Report probe completed no call")
	}
	return durs, float64(c1.mallocs-c0.mallocs) / float64(len(durs)), err
}

// newProbeLib builds a library for the in-process probes, composed like the
// daemon's when serving is set.
func newProbeLib(modelPath string, serving bool) (*mocc.Library, error) {
	model, err := mocc.LoadModelFile(modelPath)
	if err != nil {
		return nil, err
	}
	opts := []mocc.Option{
		mocc.WithSafeMode(safeMode()),
		mocc.WithObservability(mocc.ObservabilityOptions{Metrics: mocc.NewMetrics()}),
	}
	if serving {
		opts = append(opts, mocc.WithServing(servingOptions()))
	}
	return mocc.New(model, opts...)
}

// probeAppReport measures App.Report in process — on a library composed
// like the daemon's and, as the reference for the latency floor, on one
// without serving — and Library.Publish on the former.
func probeAppReport(e *env, f *fleet, modelPath string, budget time.Duration) error {
	lib, err := newProbeLib(modelPath, true)
	if err != nil {
		return err
	}
	defer lib.Close()
	_, mallocs, err := appLoop(f, lib, budget, e.tr)
	if err != nil {
		return err
	}
	e.set("mocc.report_allocs", mallocs)
	pub := make([]float64, 16)
	for i := range pub {
		t0 := time.Now()
		if _, err := lib.Publish(lib.Model()); err != nil {
			return err
		}
		pub[i] = float64(time.Since(t0)) / 1e3
	}
	e.set("mocc.publish_us", median(pub))

	direct, err := newProbeLib(modelPath, false)
	if err != nil {
		return err
	}
	durs, _, err := appLoop(f, direct, budget, nil)
	if err != nil {
		return err
	}
	e.set("mocc.report_direct_us", median(durs))
	return nil
}

// flowObs rebuilds, outside the library, the observation vectors App.Report
// would hand the policy: one feature tracker per flow fed the generated
// statuses.
type flowObs struct {
	gens     []rng
	trackers []*cc.FeatureTracker
	bufs     [][]float64
}

func newFlowObs(f *fleet) *flowObs {
	o := &flowObs{
		gens:     make([]rng, f.shape.flows),
		trackers: make([]*cc.FeatureTracker, f.shape.flows),
		bufs:     make([][]float64, f.shape.flows),
	}
	for i := range o.gens {
		o.gens[i] = newRNG(f.seed, uint64(i))
		o.trackers[i] = cc.NewFeatureTracker(core.HistoryLen)
	}
	return o
}

func (o *flowObs) next(j int) []float64 {
	o.trackers[j].Push(ccReport(o.gens[j].status()))
	o.bufs[j] = o.trackers[j].ObservationInto(o.bufs[j])
	return o.bufs[j]
}

// probeClientAct measures serve.Client.Act on a bench-owned engine
// configured like the library's: submit, queue wait, batched forward.
func probeClientAct(e *env, f *fleet, cm *core.Model, budget time.Duration) error {
	eng := serve.New(cm.Clone(), serve.Config{
		Deadline: servingOptions().Deadline,
		Metrics:  obs.NewRegistry(),
	})
	defer eng.Close()
	clients := make([]*serve.Client, f.shape.flows)
	for i := range clients {
		clients[i] = eng.NewClient(uint64(i), toObjective(f.prefs[i]))
	}
	o := newFlowObs(f)
	var bad atomic.Int64
	err := closedLoop(f.shape, nil, time.Now().Add(budget), func(w, j int, req int32) (time.Time, error) {
		in := o.next(j)
		t0 := time.Now()
		act := clients[j].Act(in)
		t1 := time.Now()
		if math.IsNaN(act) || math.IsInf(act, 0) {
			bad.Add(1)
		}
		e.tr.add(spClientAct, t0, t1, req)
		return t1, nil
	})
	if n := bad.Load(); n > 0 {
		e.wrong("serve.Client.Act returned %d non-finite actions", n)
	}
	return err
}

// probeActBatch measures the inference layer on its own: the batched
// forward at the batch size the workload actually formed (the compute
// share of Client.Act), and the single-sample and batch-1/batch-64 views.
func probeActBatch(e *env, f *fleet, cm *core.Model, n int, budget time.Duration) error {
	if n < 1 {
		n = 1
	}
	o := newFlowObs(f)
	rows := func(n int) ([]objective.Weights, [][]float64, []float64) {
		ws := make([]objective.Weights, n)
		in := make([][]float64, n)
		for r := 0; r < n; r++ {
			j := r % f.shape.flows
			ws[r] = toObjective(f.prefs[j])
			in[r] = append([]float64(nil), o.next(j)...)
		}
		return ws, in, make([]float64, n)
	}
	bi := cm.NewBatchInference()
	ws, in, out := rows(n)
	start := time.Now()
	for req := int32(0); req < maxProbeSpans && time.Since(start) < budget; req++ {
		t0 := time.Now()
		bi.ActBatch(ws, in, out)
		e.tr.add(spActBatch, t0, time.Now(), req)
	}
	e.sink = out[0]

	micro := budget / 8
	inf := cm.NewInference()
	e.set("core.act_single_ns", perOpNs(micro, 256, func() { e.sink = inf.ActFor(ws[0], in[0]) }))
	ws1, in1, out1 := rows(1)
	e.set("core.act_batch1_ns", perOpNs(micro, 256, func() { bi.ActBatch(ws1, in1, out1) }))
	ws64, in64, out64 := rows(64)
	e.set("core.act_batch64_ns_per_sample", perOpNs(micro, 16, func() { bi.ActBatch(ws64, in64, out64) })/64)
	return nil
}

// probeUDPEcho measures the floor under every exchange: one report-sized
// datagram out and one rate-sized datagram back over loopback between two
// bench-owned sockets — kernel plus netpoller, no mocc code.
func probeUDPEcho(e *env, budget time.Duration) error {
	srv, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		buf := make([]byte, 2048)
		reply := make([]byte, datapath.WireRateBytes)
		for {
			_, addr, err := srv.ReadFromUDP(buf)
			if err != nil {
				return
			}
			srv.WriteToUDP(reply, addr)
		}
	}()
	defer func() {
		srv.Close()
		<-done
	}()
	cl, err := net.DialUDP("udp", nil, srv.LocalAddr().(*net.UDPAddr))
	if err != nil {
		return err
	}
	defer cl.Close()
	pkt := make([]byte, datapath.WireReportBytes)
	in := make([]byte, 2048)
	start := time.Now()
	for req := int32(0); req < maxProbeSpans && time.Since(start) < budget; req++ {
		if err := cl.SetReadDeadline(time.Now().Add(time.Second)); err != nil {
			return err
		}
		t0 := time.Now()
		if _, err := cl.Write(pkt); err != nil {
			return fmt.Errorf("udp echo: %w", err)
		}
		if _, err := cl.Read(in); err != nil {
			return fmt.Errorf("udp echo: %w", err)
		}
		e.tr.add(spUDPEcho, t0, time.Now(), req)
	}
	return nil
}

// probeCodec measures the wire codec: the four calls one exchange makes,
// as a span per exchange and in nanoseconds per call.
func probeCodec(e *env, budget time.Duration) error {
	gen := newRNG(e.cfg.seed, 0xc0dec)
	w := gen.pref()
	st := gen.status()
	rep := datapath.WireReport{
		Flow: 7, Thr: w.Thr, Lat: w.Lat, Loss: w.Loss,
		DurationNs: st.Duration.Nanoseconds(),
		Sent:       st.PacketsSent, Acked: st.PacketsAcked, Lost: st.PacketsLost,
		AvgRTTNs: st.AvgRTT.Nanoseconds(), MinRTTNs: st.MinRTT.Nanoseconds(),
	}
	pkt := make([]byte, datapath.WireReportBytes)
	out := make([]byte, datapath.WireRateBytes)
	start := time.Now()
	for req := int32(0); req < maxProbeSpans && time.Since(start) < budget; req++ {
		t0 := time.Now()
		datapath.EncodeReport(pkt, uint64(req), 1, rep)
		_, _, got, ok := datapath.DecodeReport(pkt)
		datapath.EncodeRate(out, uint64(req), 1, got.Flow, 1234.5, 0)
		_, _, _, rate, _, ok2 := datapath.DecodeRate(out)
		e.tr.add(spCodec, t0, time.Now(), req)
		if !ok || !ok2 || got != rep || rate != 1234.5 {
			e.wrong("wire codec round trip changed the datagram")
			break
		}
	}
	micro := budget / 8
	e.set("datapath.encode_report_ns", perOpNs(micro, 1024, func() { datapath.EncodeReport(pkt, 1, 1, rep) }))
	e.set("datapath.decode_report_ns", perOpNs(micro, 1024, func() { _, _, r, _ := datapath.DecodeReport(pkt); e.sink = r.Sent }))
	e.set("datapath.encode_rate_ns", perOpNs(micro, 1024, func() { datapath.EncodeRate(out, 1, 1, 7, 1234.5, 0) }))
	e.set("datapath.decode_rate_ns", perOpNs(micro, 1024, func() { _, _, _, r, _, _ := datapath.DecodeRate(out); e.sink = r }))
	return nil
}

// probeRegister measures what one flow costs a serving library: the
// Register call and the heap that survives a collection afterwards.
func probeRegister(e *env, modelPath string) error {
	lib, err := newProbeLib(modelPath, true)
	if err != nil {
		return err
	}
	defer lib.Close()
	const n = 1024
	gen := newRNG(e.cfg.seed, 0x4e9)
	before := liveHeapMB()
	durs := make([]float64, n)
	for i := range durs {
		w := gen.pref()
		t0 := time.Now()
		if _, err := lib.Register(w); err != nil {
			return err
		}
		durs[i] = float64(time.Since(t0)) / 1e3
	}
	after := liveHeapMB()
	e.set("mocc.register_us", median(durs))
	e.set("mocc.live_heap_kb_per_flow", math.Max(0, (after-before)*1024/n))
	runtime.KeepAlive(lib)
	return nil
}
