package scenario

import (
	"fmt"
	"math"

	"mocc/internal/apps"
	"mocc/internal/netsim"
	"mocc/internal/topo"
	"mocc/internal/trace"
)

// Engine selects which simulator engine executes a run. The same pair
// exists on both lowering targets: netsim for single-bottleneck specs, topo
// for topology specs.
type Engine string

// Engines.
const (
	EngineFast      Engine = "fast"      // packet-train production engine
	EngineReference Engine = "reference" // per-packet seed engine (ground truth)
)

// RunOptions parameterize Run.
type RunOptions struct {
	CompileOptions
	// Engine defaults to EngineFast.
	Engine Engine
	// Workers does nothing. It sized the sharded topology engine's worker
	// pool; that engine is gone (topo.Engine runs on one goroutine) and the
	// field is still here only because bench/, which a change claiming a
	// gain may not edit, sets it. It goes, with topo.Engine.Workers, in the
	// benchmark change that drops the topo.sharded_pkts_per_s probe.
	Workers int
}

// FlowResult is one flow's outcome, App.Stats-style.
type FlowResult struct {
	Label  string `json:"label"`
	Scheme string `json:"scheme"`

	Sent      int `json:"sent"`
	Delivered int `json:"delivered"`
	Lost      int `json:"lost"`
	MIs       int `json:"mis"` // monitor intervals completed

	ThroughputMbps float64 `json:"throughput_mbps"`
	AvgRTTms       float64 `json:"avg_rtt_ms"`
	LossRate       float64 `json:"loss_rate"`

	// Completed / CompletionSec report bulk-app (packet budget) termination.
	Completed     bool    `json:"completed,omitempty"`
	CompletionSec float64 `json:"completion_sec,omitempty"`

	// ABR holds the video-app outcome when the flow carries a "video" app.
	ABR *apps.ABRResult `json:"abr,omitempty"`
}

// Result reports one executed scenario.
type Result struct {
	Name        string       `json:"name"`
	Engine      Engine       `json:"engine"`
	DurationSec float64      `json:"duration_sec"`
	Flows       []FlowResult `json:"flows"`
	Cross       []FlowResult `json:"cross,omitempty"`
}

// flowOutcome is the engine-neutral view of one executed flow: everything
// the summaries, invariant checks and differential fuzzer consume, filled
// identically from a netsim.Flow or a topo.Flow.
type flowOutcome struct {
	Label          string
	Start, Stop    float64
	Sent           int
	Delivered      int
	Lost           int
	Completed      bool
	CompletionTime float64
	SumRTT         float64
	Stats          []netsim.MIStat
}

func outcomeFromNetsim(f *netsim.Flow) flowOutcome {
	return flowOutcome{
		Label: f.Label, Start: f.Cfg.Start, Stop: f.Cfg.Stop,
		Sent: f.SentTotal, Delivered: f.DeliveredTotal, Lost: f.LostTotal,
		Completed: f.Completed, CompletionTime: f.CompletionTime,
		SumRTT: f.SumRTT, Stats: f.Stats,
	}
}

func outcomeFromTopo(f *topo.Flow) flowOutcome {
	return flowOutcome{
		Label: f.Label, Start: f.Cfg.Start, Stop: f.Cfg.Stop,
		Sent: f.SentTotal, Delivered: f.DeliveredTotal, Lost: f.LostTotal,
		Completed: f.Completed, CompletionTime: f.CompletionTime,
		SumRTT: f.SumRTT, Stats: f.Stats,
	}
}

// throughputSeries buckets an outcome's per-MI delivery counts into a
// fixed-width rate series (pkts/s) — netsim.Flow.ThroughputSeries lifted to
// the neutral view so video-app post-processing works on both engines.
func (o *flowOutcome) throughputSeries(bucket, horizon float64) []float64 {
	nB := int(math.Ceil(horizon / bucket))
	out := make([]float64, nB)
	for _, s := range o.Stats {
		idx := int(s.Time / bucket)
		if idx >= 0 && idx < nB {
			out[idx] += s.Delivered
		}
	}
	for i := range out {
		out[i] /= bucket
	}
	return out
}

// network abstracts the two netsim engines' identical driving surface.
type network interface {
	AddFlow(cfg netsim.FlowConfig) *netsim.Flow
	Run(duration float64)
}

// topoNetwork abstracts the two topo engines likewise.
type topoNetwork interface {
	AddFlow(cfg topo.FlowConfig) *topo.Flow
	Run(duration float64)
}

// execute compiles and runs a single-bottleneck spec on the chosen netsim
// engine, returning the raw flows (spec flows first, then cross flows).
func execute(spec *Spec, opt CompileOptions, engine Engine) (*Compiled, []*netsim.Flow, error) {
	c, err := spec.Compile(opt)
	if err != nil {
		return nil, nil, err
	}
	var n network
	switch engine {
	case EngineReference:
		n = netsim.NewReferenceNetwork(c.Link, spec.Seed)
	case EngineFast, "":
		n = netsim.NewNetwork(c.Link, spec.Seed)
	default:
		return nil, nil, fmt.Errorf("scenario: unknown engine %q (want %q or %q)", engine, EngineFast, EngineReference)
	}
	flows := make([]*netsim.Flow, len(c.Flows))
	for i, cfg := range c.Flows {
		flows[i] = n.AddFlow(cfg)
	}
	n.Run(c.Duration)
	return c, flows, nil
}

// executeTopo compiles and runs a topology spec on the chosen topo engine.
func executeTopo(spec *Spec, opt CompileOptions, engine Engine) (*CompiledTopo, []*topo.Flow, error) {
	c, err := spec.CompileTopo(opt)
	if err != nil {
		return nil, nil, err
	}
	var n topoNetwork
	switch engine {
	case EngineReference:
		n = topo.NewReference(c.Topo, spec.Seed)
	case EngineFast, "":
		n = topo.NewEngine(c.Topo, spec.Seed)
	default:
		return nil, nil, fmt.Errorf("scenario: unknown engine %q (want %q or %q)", engine, EngineFast, EngineReference)
	}
	flows := make([]*topo.Flow, len(c.Flows))
	for i, cfg := range c.Flows {
		flows[i] = n.AddFlow(cfg)
	}
	n.Run(c.Duration)
	return c, flows, nil
}

// Run executes a spec end-to-end — single-bottleneck specs on netsim,
// topology specs on topo, each on its packet-train engine unless
// opt.Engine asks for the per-packet reference — checks the physical
// invariants, and reduces each flow to its summary (plus ABR
// post-processing for video-app flows). It runs on the calling goroutine;
// opt.Workers is ignored.
func Run(spec *Spec, opt RunOptions) (*Result, error) {
	var (
		outcomes []flowOutcome
		phys     physical
		numFlows int
		duration float64
		pkt      int
	)
	if spec.Topology() {
		c, flows, err := executeTopo(spec, opt.CompileOptions, opt.Engine)
		if err != nil {
			return nil, err
		}
		outcomes = make([]flowOutcome, len(flows))
		for i, f := range flows {
			outcomes[i] = outcomeFromTopo(f)
		}
		phys = c.physical()
		numFlows, duration, pkt = c.NumFlows, c.Duration, c.PktBytes
	} else {
		c, flows, err := execute(spec, opt.CompileOptions, opt.Engine)
		if err != nil {
			return nil, err
		}
		outcomes = make([]flowOutcome, len(flows))
		for i, f := range flows {
			outcomes[i] = outcomeFromNetsim(f)
		}
		phys = c.physical()
		numFlows, duration, pkt = c.NumFlows, c.Duration, c.PktBytes
	}
	if err := phys.check(outcomes); err != nil {
		return nil, fmt.Errorf("scenario %q: physical invariant violated: %w", spec.Name, err)
	}

	engine := opt.Engine
	if engine == "" {
		engine = EngineFast
	}
	res := &Result{Name: spec.Name, Engine: engine, DurationSec: duration}
	for i := range outcomes {
		var sf *Flow
		scheme := "cross"
		if i < numFlows {
			sf = &spec.Flows[i]
			scheme = sf.Scheme
		}
		fr, err := summarizeFlow(&outcomes[i], sf, scheme, duration, pkt)
		if err != nil {
			return nil, err
		}
		if i < numFlows {
			res.Flows = append(res.Flows, fr)
		} else {
			res.Cross = append(res.Cross, fr)
		}
	}
	return res, nil
}

// summarizeFlow reduces one flow outcome to a FlowResult over its active
// window.
func summarizeFlow(o *flowOutcome, sf *Flow, scheme string, duration float64, pktBytes int) (FlowResult, error) {
	start := o.Start
	end := duration
	if o.Stop > 0 && o.Stop < end {
		end = o.Stop
	}
	if o.Completed && o.CompletionTime < end {
		end = o.CompletionTime
	}
	elapsed := math.Max(end-start, 1e-9)

	fr := FlowResult{
		Label:          o.Label,
		Scheme:         scheme,
		Sent:           o.Sent,
		Delivered:      o.Delivered,
		Lost:           o.Lost,
		MIs:            len(o.Stats),
		ThroughputMbps: trace.PktsPerSecToMbps(float64(o.Delivered)/elapsed, pktBytes),
		Completed:      o.Completed,
	}
	if o.Completed {
		fr.CompletionSec = o.CompletionTime
	}
	if o.Delivered > 0 {
		fr.AvgRTTms = o.SumRTT / float64(o.Delivered) * 1000
	}
	if o.Sent > 0 {
		fr.LossRate = float64(o.Lost) / float64(o.Sent)
	}
	if sf != nil && sf.App != nil && sf.App.Kind == "video" {
		series := o.throughputSeries(1, duration)
		mbps := make([]float64, len(series))
		for i, p := range series {
			mbps[i] = trace.PktsPerSecToMbps(p, pktBytes)
		}
		abr, err := apps.SimulateABR(mbps, apps.DefaultABRConfig())
		if err != nil {
			return FlowResult{}, fmt.Errorf("scenario: video app on flow %q: %w", o.Label, err)
		}
		fr.ABR = &abr
	}
	return fr, nil
}
