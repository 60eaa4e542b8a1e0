package main

import (
	"fmt"
	"time"

	"mocc/internal/cc"
	"mocc/internal/netsim"
	"mocc/internal/objective"
	"mocc/internal/topo"
	"mocc/scenario"
)

// engineKind selects how a compiled spec is executed by the probes.
type engineKind int

const (
	engineFast      engineKind = iota // netsim.Network, or topo.Engine at Workers=1
	engineReference                   // netsim.ReferenceNetwork / topo.Reference
	engineSharded                     // topo.Engine at its default worker count
)

// engineRun compiles spec and runs it on the named engine the way
// scenario.Run does internally, timing the two steps apart; onCompiled,
// when non-nil, runs between them. It returns the run's ops (packets sent
// plus delivered).
func engineRun(spec *scenario.Spec, opt scenario.CompileOptions, kind engineKind, onCompiled func()) (ops float64, compiled, done time.Time, err error) {
	if onCompiled == nil {
		onCompiled = func() {}
	}
	if spec.Topology() {
		c, err := spec.CompileTopo(opt)
		if err != nil {
			return 0, compiled, done, err
		}
		onCompiled()
		compiled = time.Now()
		var net interface {
			AddFlow(topo.FlowConfig) *topo.Flow
			Run(float64)
		}
		switch kind {
		case engineReference:
			net = topo.NewReference(c.Topo, spec.Seed)
		default:
			eng := topo.NewEngine(c.Topo, spec.Seed)
			if kind == engineFast {
				eng.Workers = 1
			}
			net = eng
		}
		flows := make([]*topo.Flow, len(c.Flows))
		for i, cfg := range c.Flows {
			flows[i] = net.AddFlow(cfg)
		}
		net.Run(c.Duration)
		done = time.Now()
		for _, f := range flows {
			ops += float64(f.SentTotal + f.DeliveredTotal)
		}
		return ops, compiled, done, nil
	}
	c, err := spec.Compile(opt)
	if err != nil {
		return 0, compiled, done, err
	}
	onCompiled()
	compiled = time.Now()
	var net interface {
		AddFlow(netsim.FlowConfig) *netsim.Flow
		Run(float64)
	}
	if kind == engineReference {
		net = netsim.NewReferenceNetwork(c.Link, spec.Seed)
	} else {
		net = netsim.NewNetwork(c.Link, spec.Seed)
	}
	flows := make([]*netsim.Flow, len(c.Flows))
	for i, cfg := range c.Flows {
		flows[i] = net.AddFlow(cfg)
	}
	net.Run(c.Duration)
	done = time.Now()
	for _, f := range flows {
		ops += float64(f.SentTotal + f.DeliveredTotal)
	}
	return ops, compiled, done, nil
}

// engineRate runs spec on an engine at least three times within the budget
// and returns the median ops per second of the engine step alone.
func engineRate(spec *scenario.Spec, opt scenario.CompileOptions, kind engineKind, budget time.Duration) (float64, error) {
	var rates []float64
	start := time.Now()
	for len(rates) < 3 || time.Since(start) < budget {
		ops, compiled, done, err := engineRun(spec, opt, kind, nil)
		if err != nil {
			return 0, err
		}
		rates = append(rates, ops/done.Sub(compiled).Seconds())
	}
	return median(rates), nil
}

// timedAlg wraps a controller to count and time its Update calls: the cc
// layer's share of a simulated run.
type timedAlg struct {
	cc.Algorithm
	calls *int64
	ns    *int64
}

func (t timedAlg) Update(r cc.Report) float64 {
	t0 := time.Now()
	rate := t.Algorithm.Update(r)
	*t.ns += int64(time.Since(t0))
	*t.calls++
	return rate
}

// traceSim is the traced pass of a sim workload: an untraced and a traced
// stretch of the scenario.Run loop, then Parse, Compile and the engine run
// replayed on their own (round robin with scenario.Run itself), and the
// other engines the same spec can run on.
func traceSim(e *env, r *simRig) error {
	e.startTrace()
	req := int32(0)
	tracedRun := func() (int, float64, error) {
		t0 := time.Now()
		k, n, err := r.runNext()
		e.tr.add(spScenarioRun, t0, time.Now(), req)
		req++
		return k, n, err
	}
	if err := e.traceOverhead(e.budget(0.5), serialChunk(simSeeds, r.runNext, tracedRun)); err != nil {
		return err
	}

	start := time.Now()
	for i := int32(0); i < 64 || (i < maxProbeSpans && time.Since(start) < e.budget(0.01)); i++ {
		t0 := time.Now()
		if _, err := scenario.Parse(r.json); err != nil {
			return err
		}
		e.tr.add(spParse, t0, time.Now(), i)
	}

	opt := r.opt.CompileOptions
	var rates []float64
	var pkts float64
	start = time.Now()
	for i := 0; i < simSeeds || time.Since(start) < e.budget(0.2); i++ {
		// scenario.Run and the engine on its own, in alternating order: the
		// engine's speed depends on where the allocator places its arrays
		// (README, Findings 6), and whichever call always came second in a
		// fixed order could land in the slow placement every time.
		k := r.next
		runFirst := i%2 == 0
		if runFirst {
			if _, _, err := tracedRun(); err != nil {
				return err
			}
		}
		r.spec.Seed = r.seeds[k]
		t0 := time.Now()
		ops, compiled, done, err := engineRun(r.spec, opt, engineFast, nil)
		if err != nil {
			return err
		}
		if !runFirst {
			if _, _, err := tracedRun(); err != nil {
				return err
			}
		}
		e.tr.add(spCompile, t0, compiled, req-1)
		e.tr.add(spEngineRun, compiled, done, req-1)
		if ops != r.pkts[k] {
			e.wrong("seed %d: the engine run on its own moved %v packets, scenario.Run %v", r.seeds[k], ops, r.pkts[k])
		}
		rates = append(rates, ops/done.Sub(compiled).Seconds())
	}
	for _, p := range r.pkts {
		pkts += p / float64(len(r.pkts))
	}
	st := e.tr.stats()
	e.set("scenario.parse_us", st[spParse].medianUs)
	e.set("scenario.compile_us", st[spCompile].medianUs)
	e.set("scenario.summarize_us", st[spScenarioRun].selfUs)
	e.set("scenario.pkts_per_run", pkts)

	// Allocations of one engine run, compile excluded.
	r.spec.Seed = r.seeds[0]
	var c0 counters
	ops, _, _, err := engineRun(r.spec, opt, engineFast, func() { c0 = readCounters() })
	if err != nil {
		return err
	}
	perKpkt := float64(readCounters().mallocs-c0.mallocs) / (ops / 1000)

	b := e.budget(0.03)
	reference, err := engineRate(r.spec, opt, engineReference, b)
	if err != nil {
		return err
	}
	layer := "netsim"
	if r.spec.Topology() {
		layer = "topo"
		if err := probeTopoVariants(e, r, b); err != nil {
			return err
		}
	}
	e.set(layer+".run_ms", st[spEngineRun].medianUs/1e3)
	e.set(layer+".pkts_per_s", median(rates))
	e.set(layer+".allocs_per_kpkt", perKpkt)
	e.set(layer+".reference_pkts_per_s", reference)

	// The controllers' share: every scheme wrapped to count and time its
	// Update calls over one run.
	var calls, ns int64
	timed := opt
	timed.Resolver = func(f scenario.Flow) (cc.Algorithm, error) {
		alg, err := r.resolve(f)
		if alg == nil && err == nil {
			alg, err = builtin(f.Scheme)
		}
		if err != nil {
			return nil, err
		}
		return timedAlg{alg, &calls, &ns}, nil
	}
	if _, err := scenario.Run(r.spec, scenario.RunOptions{CompileOptions: timed, Workers: 1}); err != nil {
		return err
	}
	if calls > 0 {
		e.set("cc.update_ns", float64(ns)/float64(calls))
	}
	e.set("cc.mis_per_run", float64(calls))

	inf := r.model.NewInference()
	in := make([]float64, 3*r.model.HistoryLen)
	e.set("core.act_single_ns", perOpNs(e.budget(0.005), 256, func() { e.sink = inf.ActFor(objective.BalancePref, in) }))
	return nil
}

// builtin constructs the model-free schemes the committed specs use, so
// the timing wrapper can sit around them too.
func builtin(scheme string) (cc.Algorithm, error) {
	switch scheme {
	case "cubic":
		return cc.NewCubic(), nil
	case "bbr":
		return cc.NewBBR(), nil
	case "vegas":
		return cc.NewVegas(), nil
	}
	return nil, fmt.Errorf("bench: no timing wrapper for scheme %q", scheme)
}

// probeTopoVariants runs the topo engine where sim-topo's pinned
// configuration does not: sharded at the default worker count, on the
// sim-onelink scenario re-expressed as a one-link topology, and on the
// generated 10k-flow incast.
func probeTopoVariants(e *env, r *simRig, budget time.Duration) error {
	opt := r.opt.CompileOptions
	sharded, err := engineRate(r.spec, opt, engineSharded, budget)
	if err != nil {
		return err
	}
	e.set("topo.sharded_pkts_per_s", sharded)

	one, err := scenario.Parse(specOnelink)
	if err != nil {
		return err
	}
	one.Seed = r.seeds[0]
	onelink, err := engineRate(asTopology(one), opt, engineFast, budget)
	if err != nil {
		return err
	}
	e.set("topo.onelink_pkts_per_s", onelink)

	incast, err := scenario.Generate(scenario.Incast10k, e.cfg.seed)
	if err != nil {
		return err
	}
	ops, compiled, done, err := engineRun(incast, scenario.CompileOptions{}, engineFast, nil)
	if err != nil {
		return err
	}
	e.set("topo.incast10k_pkts_per_s", ops/done.Sub(compiled).Seconds())
	return nil
}

// asTopology re-expresses a single-bottleneck spec as a version 2 spec
// with one link, so the topo engine can run the netsim workload.
func asTopology(s *scenario.Spec) *scenario.Spec {
	t := *s
	t.Version = 2
	link := s.Link
	link.Name = "bottleneck"
	link.DelayMs = link.RTTms / 2
	link.RTTms = 0
	t.Link = scenario.Link{}
	t.Links = []scenario.Link{link}
	path := []string{link.Name}
	t.Flows = append([]scenario.Flow(nil), s.Flows...)
	for i := range t.Flows {
		t.Flows[i].Path = path
	}
	t.Cross = append([]scenario.Cross(nil), s.Cross...)
	for i := range t.Cross {
		t.Cross[i].Path = path
	}
	return &t
}
