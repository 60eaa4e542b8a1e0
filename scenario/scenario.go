// Package scenario is the public surface of the scenario subsystem:
// declarative, versioned scenario specs (JSON), Mahimahi trace replay, a
// seeded generator of scenario families, and the engine-differential fuzz
// harness. It re-exports mocc/internal/scenario so applications can load,
// generate and run scenarios programmatically; the `mocc-scen` CLI fronts
// the same machinery (list / describe / run / fuzz subcommands).
//
// Learned schemes ("mocc", "aurora-*", "orca") resolve through the model
// zoo, which CLIs wire via a SchemeResolver; specs that stick to the
// built-in schemes (cubic, vegas, bbr, copa, pcc-allegro, pcc-vivace,
// fixed) run with zero extra configuration.
package scenario

import (
	internal "mocc/internal/scenario"
)

// Core spec types.
type (
	// Spec is one complete declarative scenario.
	Spec = internal.Spec
	// Link describes the shared bottleneck and its capacity source.
	Link = internal.Link
	// Level is one segment of a declarative capacity schedule.
	Level = internal.Level
	// Flow describes one sender-receiver pair.
	Flow = internal.Flow
	// App attaches an application workload (bulk, rtc, video) to a flow.
	App = internal.App
	// Cross is non-reactive background traffic.
	Cross = internal.Cross
	// Weights is a declarative preference vector for learned schemes.
	Weights = internal.Weights
)

// Compilation and execution types.
type (
	// CompileOptions parameterize spec compilation (trace base dir,
	// learned-scheme resolver, packet size).
	CompileOptions = internal.CompileOptions
	// SchemeResolver wires learned schemes into the compiler.
	SchemeResolver = internal.SchemeResolver
	// Compiled is a spec lowered onto the packet-level simulator.
	Compiled = internal.Compiled
	// CompiledTopo is a topology spec lowered onto the multi-link
	// simulator (mocc/internal/topo).
	CompiledTopo = internal.CompiledTopo
	// Engine selects the simulator engine for a run.
	Engine = internal.Engine
	// RunOptions parameterize Run.
	RunOptions = internal.RunOptions
	// Result reports one executed scenario.
	Result = internal.Result
	// FlowResult is one flow's outcome.
	FlowResult = internal.FlowResult
)

// Generator and fuzz types.
type (
	// Family names a generator scenario family.
	Family = internal.Family
	// Generator enumerates deterministic scenarios over families.
	Generator = internal.Generator
	// FuzzConfig parameterizes a differential fuzz run.
	FuzzConfig = internal.FuzzConfig
	// FuzzResult summarizes a clean fuzz run.
	FuzzResult = internal.FuzzResult
)

// Schema and engine constants.
const (
	SpecVersion     = internal.SpecVersion
	DefaultPktBytes = internal.DefaultPktBytes

	EngineFast      = internal.EngineFast
	EngineReference = internal.EngineReference
)

// Generator families.
const (
	Cellular      = internal.Cellular
	Wifi          = internal.Wifi
	Satellite     = internal.Satellite
	LossyWireless = internal.LossyWireless
	Incast        = internal.Incast
	FlashCrowd    = internal.FlashCrowd

	// Topology families (multi-link specs on the topo engine).
	ParkingLot = internal.ParkingLot
	Incast10k  = internal.Incast10k
	Chain      = internal.Chain
)

// Parse decodes and validates a JSON spec.
func Parse(data []byte) (*Spec, error) { return internal.Parse(data) }

// Load reads and validates a spec file.
func Load(path string) (*Spec, error) { return internal.Load(path) }

// Run executes a spec end-to-end on the packet-level simulator.
func Run(spec *Spec, opt RunOptions) (*Result, error) { return internal.Run(spec, opt) }

// Generate produces the deterministic scenario (family, seed) names.
func Generate(f Family, seed int64) (*Spec, error) { return internal.Generate(f, seed) }

// Families returns every single-bottleneck generator family in canonical
// order.
func Families() []Family { return internal.Families() }

// TopoFamilies returns every topology generator family in canonical order.
func TopoFamilies() []Family { return internal.TopoFamilies() }

// AllFamilies returns every generator family, single-bottleneck first.
func AllFamilies() []Family { return internal.AllFamilies() }

// FamilyDescription is a one-line family description for CLIs.
func FamilyDescription(f Family) string { return internal.FamilyDescription(f) }

// DiffEngines replays a spec through both simulator engines and compares
// every observable bitwise.
func DiffEngines(spec *Spec, opt CompileOptions) (packets int, err error) {
	return internal.DiffEngines(spec, opt)
}

// Fuzz drives the seeded generator through DiffEngines N times.
func Fuzz(cfg FuzzConfig) (FuzzResult, error) { return internal.Fuzz(cfg) }
