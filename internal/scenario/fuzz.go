package scenario

import "fmt"

// DiffEngines compiles the spec twice (fresh controller state per engine),
// runs it through both the production engine and the per-packet reference
// engine with the same seed — netsim for single-bottleneck specs, the
// topo engines for topology specs — and compares every observable
// bitwise: totals, completion, accumulated RTT and the full per-flow
// monitor-interval series. Both runs are additionally checked against the
// engine-independent physical invariants (packet conservation, the path
// propagation RTT floor, per-link capacity), which catch bugs a
// differential comparison cannot: both engines being wrong the same way.
// It returns nil when everything holds, and a descriptive error naming the
// first divergence otherwise. The returned packet count (total sent across
// flows) sizes fuzz budgets.
func DiffEngines(spec *Spec, opt CompileOptions) (packets int, err error) {
	var fast, ref []flowOutcome
	var phys physical
	if spec.Topology() {
		cf, ff, err := executeTopo(spec, opt, EngineFast)
		if err != nil {
			return 0, err
		}
		_, rf, err := executeTopo(spec, opt, EngineReference)
		if err != nil {
			return 0, err
		}
		fast = make([]flowOutcome, len(ff))
		ref = make([]flowOutcome, len(rf))
		for i := range ff {
			fast[i] = outcomeFromTopo(ff[i])
		}
		for i := range rf {
			ref[i] = outcomeFromTopo(rf[i])
		}
		phys = cf.physical()
	} else {
		cf, ff, err := execute(spec, opt, EngineFast)
		if err != nil {
			return 0, err
		}
		_, rf, err := execute(spec, opt, EngineReference)
		if err != nil {
			return 0, err
		}
		fast = make([]flowOutcome, len(ff))
		ref = make([]flowOutcome, len(rf))
		for i := range ff {
			fast[i] = outcomeFromNetsim(ff[i])
		}
		for i := range rf {
			ref[i] = outcomeFromNetsim(rf[i])
		}
		phys = cf.physical()
	}
	for i := range fast {
		packets += fast[i].Sent
	}
	if err := diffFlows(fast, ref); err != nil {
		return packets, fmt.Errorf("scenario %q: engines diverge: %w", spec.Name, err)
	}
	if err := phys.check(fast); err != nil {
		return packets, fmt.Errorf("scenario %q: fast engine violates physics: %w", spec.Name, err)
	}
	if err := phys.check(ref); err != nil {
		return packets, fmt.Errorf("scenario %q: reference engine violates physics: %w", spec.Name, err)
	}
	return packets, nil
}

// diffFlows compares the two engines' flow outcomes bitwise.
func diffFlows(fast, ref []flowOutcome) error {
	if len(fast) != len(ref) {
		return fmt.Errorf("flow count %d vs %d", len(fast), len(ref))
	}
	for i := range fast {
		a, b := &fast[i], &ref[i]
		switch {
		case a.Sent != b.Sent:
			return fmt.Errorf("flow %d (%s): SentTotal fast=%d ref=%d", i, a.Label, a.Sent, b.Sent)
		case a.Delivered != b.Delivered:
			return fmt.Errorf("flow %d (%s): DeliveredTotal fast=%d ref=%d", i, a.Label, a.Delivered, b.Delivered)
		case a.Lost != b.Lost:
			return fmt.Errorf("flow %d (%s): LostTotal fast=%d ref=%d", i, a.Label, a.Lost, b.Lost)
		case a.Completed != b.Completed:
			return fmt.Errorf("flow %d (%s): Completed fast=%v ref=%v", i, a.Label, a.Completed, b.Completed)
		case a.CompletionTime != b.CompletionTime:
			return fmt.Errorf("flow %d (%s): CompletionTime fast=%v ref=%v", i, a.Label, a.CompletionTime, b.CompletionTime)
		case a.SumRTT != b.SumRTT:
			return fmt.Errorf("flow %d (%s): SumRTT fast=%v ref=%v", i, a.Label, a.SumRTT, b.SumRTT)
		case len(a.Stats) != len(b.Stats):
			return fmt.Errorf("flow %d (%s): MI count fast=%d ref=%d", i, a.Label, len(a.Stats), len(b.Stats))
		}
		for j := range a.Stats {
			if a.Stats[j] != b.Stats[j] {
				return fmt.Errorf("flow %d (%s): MI %d differs:\n  fast: %+v\n  ref:  %+v",
					i, a.Label, j, a.Stats[j], b.Stats[j])
			}
		}
	}
	return nil
}

// FuzzConfig parameterizes a differential fuzz run.
type FuzzConfig struct {
	// N is the number of generated scenarios to diff.
	N int
	// Seed offsets the generator.
	Seed int64
	// Families restricts the rotation (default: the single-bottleneck
	// families, or the topology families when Topo is set).
	Families []Family
	// Topo switches the default rotation to the topology families,
	// exercising the multi-link engine pair.
	Topo bool
	// Progress, when set, is invoked after each scenario.
	Progress func(i int, spec *Spec, packets int)
}

// FuzzResult summarizes a clean fuzz run.
type FuzzResult struct {
	Scenarios int
	Packets   int // total packets pushed through EACH engine
}

// Fuzz drives the seeded generator through DiffEngines N times — the
// generator as an engine-equivalence fuzzer. It stops at the first
// divergence or invariant violation, returning an error that names the
// scenario (family + seed), so `mocc-scen fuzz` reproduces it with
// `describe`/`run`.
func Fuzz(cfg FuzzConfig) (FuzzResult, error) {
	if cfg.N <= 0 {
		cfg.N = 25
	}
	families := cfg.Families
	if len(families) == 0 && cfg.Topo {
		families = TopoFamilies()
	}
	gen := Generator{Families: families, Seed: cfg.Seed}
	var res FuzzResult
	for i := 0; i < cfg.N; i++ {
		spec, err := gen.Spec(i)
		if err != nil {
			return res, err
		}
		packets, err := DiffEngines(spec, CompileOptions{})
		if err != nil {
			return res, err
		}
		res.Scenarios++
		res.Packets += packets
		if cfg.Progress != nil {
			cfg.Progress(i, spec, packets)
		}
	}
	return res, nil
}
