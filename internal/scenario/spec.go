// Package scenario makes network scenarios first-class data instead of
// code. A Spec is a versioned, declarative JSON description of one
// experiment — the bottleneck link (constant capacity, a piecewise
// schedule, or a replayed Mahimahi trace), the flows crossing it (scheme,
// activity window, preference weights, application workload) and any
// non-reactive cross traffic — that compiles into netsim and gym
// configurations without recompiling Go. A seeded Generator produces
// unlimited deterministic Specs from named families (cellular, wifi,
// satellite, ...), and the differential fuzz harness replays every
// generated Spec through both netsim engines and diffs the results
// bitwise, turning the generator into an engine-equivalence fuzzer.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// SpecVersion is the newest schema version this package writes. Version 1
// specs (single bottleneck) remain accepted unchanged; version 2 adds the
// optional topology section (`links` + per-flow `path`) lowered onto
// mocc/internal/topo.
const SpecVersion = 2

// minSpecVersion is the oldest schema version still accepted.
const minSpecVersion = 1

// DefaultPktBytes is the packet size used for Mbps<->pkts/s conversions
// when a spec does not override it.
const DefaultPktBytes = 1500

// Weights is a declarative preference vector for learned schemes
// (throughput, latency, loss importance; normalized at compile time).
type Weights struct {
	Throughput float64 `json:"throughput"`
	Latency    float64 `json:"latency"`
	Loss       float64 `json:"loss"`
}

// Level is one segment of a declarative capacity schedule.
type Level struct {
	AtSec float64 `json:"at_sec"` // segment start time
	Mbps  float64 `json:"mbps"`   // capacity from AtSec on
}

// Link describes one bottleneck. Exactly one capacity source must be set:
// CapacityMbps (constant), Schedule (piecewise levels), or TraceFile
// (Mahimahi-format replay, resolved relative to the spec file).
//
// In a version 1 spec (or a version 2 spec without a topology) it is the
// single shared bottleneck, characterized by its round-trip time. As an
// entry of a version 2 `links` section it is one named link of the
// topology, characterized by its one-way DelayMs instead (the RTT of a
// flow is twice the sum of its path's delays).
type Link struct {
	Name      string  `json:"name,omitempty"`       // topology links: referenced by flow paths
	RTTms     float64 `json:"rtt_ms,omitempty"`     // single-bottleneck form only
	DelayMs   float64 `json:"delay_ms,omitempty"`   // topology links: one-way delay
	QueuePkts int     `json:"queue_pkts,omitempty"` // 0 selects the simulator default
	LossRate  float64 `json:"loss_rate,omitempty"`  // random (non-congestive) loss in [0, 1)

	CapacityMbps    float64 `json:"capacity_mbps,omitempty"`
	Schedule        []Level `json:"schedule,omitempty"`
	ScheduleLoopSec float64 `json:"schedule_loop_sec,omitempty"` // wraparound period; 0 holds the last level
	TraceFile       string  `json:"trace_file,omitempty"`
	TraceBinMs      float64 `json:"trace_bin_ms,omitempty"` // rate-estimation bin (default 100ms)
}

// App attaches an application workload from internal/apps to a flow.
type App struct {
	// Kind selects the workload: "bulk" (finite transfer, flow ends after
	// FileMBytes), "rtc" (app-limited to SourceMbps) or "video" (ABR
	// post-processing over the flow's per-second throughput series).
	Kind       string  `json:"kind"`
	FileMBytes float64 `json:"file_mbytes,omitempty"` // bulk
	SourceMbps float64 `json:"source_mbps,omitempty"` // rtc
}

// Flow describes one sender-receiver pair.
type Flow struct {
	// Scheme names the congestion controller. Built-ins: cubic, vegas,
	// bbr, copa, pcc-allegro, pcc-vivace, fixed (requires RateMbps).
	// Learned schemes (mocc, mocc-throughput, mocc-latency,
	// aurora-throughput, aurora-latency, orca) need a SchemeResolver —
	// the CLIs wire one backed by the pantheon model zoo.
	Scheme   string   `json:"scheme"`
	Label    string   `json:"label,omitempty"`
	StartSec float64  `json:"start_sec,omitempty"`
	StopSec  float64  `json:"stop_sec,omitempty"` // 0 = run to the end
	RateMbps float64  `json:"rate_mbps,omitempty"`
	Weights  *Weights `json:"weights,omitempty"` // learned-scheme preference
	App      *App     `json:"app,omitempty"`
	MIms     float64  `json:"mi_ms,omitempty"` // monitor interval (0 = one base RTT)
	Seed     int64    `json:"seed,omitempty"`  // 0 derives from the spec seed
	// Path is the ordered list of link names the flow traverses; required
	// when (and only when) the spec declares a topology.
	Path []string `json:"path,omitempty"`
}

// Cross is non-reactive background traffic sharing the bottleneck (or, in
// a topology spec, the links named by its path).
type Cross struct {
	RateMbps float64 `json:"rate_mbps"`
	OnOffSec float64 `json:"on_off_sec,omitempty"` // square wave half-period; 0 = constant
	StartSec float64 `json:"start_sec,omitempty"`
	StopSec  float64 `json:"stop_sec,omitempty"`
	// Path is the ordered list of link names the traffic traverses;
	// required when (and only when) the spec declares a topology.
	Path []string `json:"path,omitempty"`
}

// Spec is one complete declarative scenario.
type Spec struct {
	Version     int     `json:"version"`
	Name        string  `json:"name"`
	Description string  `json:"description,omitempty"`
	Family      string  `json:"family,omitempty"` // generator provenance
	DurationSec float64 `json:"duration_sec"`
	Seed        int64   `json:"seed,omitempty"`
	PktBytes    int     `json:"pkt_bytes,omitempty"` // default 1500
	Link        Link    `json:"link,omitzero"`
	// Links, when non-empty, declares a multi-bottleneck topology (version
	// 2): named links that flow/cross paths traverse in order. Mutually
	// exclusive with the single Link.
	Links []Link  `json:"links,omitempty"`
	Flows []Flow  `json:"flows"`
	Cross []Cross `json:"cross,omitempty"`
}

// Topology reports whether the spec declares a multi-link topology and
// therefore lowers onto mocc/internal/topo instead of netsim.
func (s *Spec) Topology() bool { return len(s.Links) > 0 }

// Parse decodes and validates a JSON spec. Unknown fields are rejected so
// typos in hand-written specs fail loudly.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("scenario: parsing spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// Load reads and validates a spec file.
func Load(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// JSON renders the spec as indented, newline-terminated JSON — the
// canonical byte form the generator's determinism guarantee is stated over.
func (s *Spec) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("scenario: encoding spec: %w", err)
	}
	return append(out, '\n'), nil
}

// finitePos reports whether v is a finite number > 0.
func finitePos(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

// finiteNonNeg reports whether v is a finite number >= 0.
func finiteNonNeg(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v >= 0
}

// Validate checks the structural constraints every consumer relies on.
func (s *Spec) Validate() error {
	if s.Version < minSpecVersion || s.Version > SpecVersion {
		return fmt.Errorf("scenario: spec version %d is not supported (want %d..%d)", s.Version, minSpecVersion, SpecVersion)
	}
	if s.Name == "" {
		return fmt.Errorf("scenario: spec needs a name")
	}
	if !finitePos(s.DurationSec) {
		return fmt.Errorf("scenario %q: duration_sec %g must be > 0", s.Name, s.DurationSec)
	}
	if s.PktBytes < 0 {
		return fmt.Errorf("scenario %q: pkt_bytes %d must be >= 0", s.Name, s.PktBytes)
	}
	if s.Topology() {
		if err := s.validateTopology(); err != nil {
			return err
		}
	} else {
		if err := s.Link.validate("link", false); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	if len(s.Flows) == 0 {
		return fmt.Errorf("scenario %q: at least one flow is required", s.Name)
	}
	for i, f := range s.Flows {
		if err := f.validate(); err != nil {
			return fmt.Errorf("scenario %q: flow %d: %w", s.Name, i, err)
		}
		if err := s.validatePath(f.Path); err != nil {
			return fmt.Errorf("scenario %q: flow %d: %w", s.Name, i, err)
		}
		if f.StartSec >= s.DurationSec {
			return fmt.Errorf("scenario %q: flow %d: start_sec %g is at or past duration_sec %g (the flow would never run)",
				s.Name, i, f.StartSec, s.DurationSec)
		}
	}
	for i, c := range s.Cross {
		if err := c.validate(); err != nil {
			return fmt.Errorf("scenario %q: cross %d: %w", s.Name, i, err)
		}
		if err := s.validatePath(c.Path); err != nil {
			return fmt.Errorf("scenario %q: cross %d: %w", s.Name, i, err)
		}
		if c.StartSec >= s.DurationSec {
			return fmt.Errorf("scenario %q: cross %d: start_sec %g is at or past duration_sec %g (the cross traffic would never run)",
				s.Name, i, c.StartSec, s.DurationSec)
		}
	}
	if s.Topology() {
		if err := s.checkPathDAG(); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// MaxTopologyLinks bounds the links section: the topology engine scans one
// ring per link and targets small DAGs (access / core / egress tiers).
const MaxTopologyLinks = 256

// validateTopology checks the version-2 links section itself: naming,
// per-link parameters, and the mutual exclusion with the single-link form.
func (s *Spec) validateTopology() error {
	if s.Version < 2 {
		return fmt.Errorf("scenario %q: a links section (topology) requires version 2, got version %d", s.Name, s.Version)
	}
	if s.Link.RTTms != 0 || s.Link.CapacityMbps != 0 || len(s.Link.Schedule) > 0 || s.Link.TraceFile != "" ||
		s.Link.QueuePkts != 0 || s.Link.LossRate != 0 || s.Link.ScheduleLoopSec != 0 || s.Link.TraceBinMs != 0 ||
		s.Link.Name != "" || s.Link.DelayMs != 0 {
		return fmt.Errorf("scenario %q: link and links are mutually exclusive; declare every bottleneck inside links", s.Name)
	}
	if len(s.Links) > MaxTopologyLinks {
		return fmt.Errorf("scenario %q: %d links exceed the %d-link limit", s.Name, len(s.Links), MaxTopologyLinks)
	}
	seen := make(map[string]int, len(s.Links))
	for i, l := range s.Links {
		ctx := fmt.Sprintf("links[%d]", i)
		if l.Name != "" {
			ctx = fmt.Sprintf("links[%d] (%q)", i, l.Name)
		}
		if l.Name == "" {
			return fmt.Errorf("scenario %q: %s: every topology link needs a name", s.Name, ctx)
		}
		if prev, dup := seen[l.Name]; dup {
			return fmt.Errorf("scenario %q: duplicate link name %q (links[%d] and links[%d])", s.Name, l.Name, prev, i)
		}
		seen[l.Name] = i
		if err := l.validate(ctx, true); err != nil {
			return fmt.Errorf("scenario %q: %w", s.Name, err)
		}
	}
	return nil
}

// linkIndex returns the position of the named topology link, or -1.
func (s *Spec) linkIndex(name string) int {
	for i, l := range s.Links {
		if l.Name == name {
			return i
		}
	}
	return -1
}

// validatePath checks one flow/cross path against the spec's mode: paths
// are required over a topology, forbidden without one, and must be
// loop-free chains of declared link names.
func (s *Spec) validatePath(path []string) error {
	if !s.Topology() {
		if len(path) > 0 {
			return fmt.Errorf("path is set but the spec declares no links section (single-bottleneck specs take no paths)")
		}
		return nil
	}
	if len(path) == 0 {
		return fmt.Errorf("path is required when the spec declares a links section (name at least one link)")
	}
	seen := make(map[string]bool, len(path))
	for _, name := range path {
		if s.linkIndex(name) < 0 {
			return fmt.Errorf("path references undeclared link %q (declared: %s)", name, s.linkNames())
		}
		if seen[name] {
			return fmt.Errorf("path visits link %q twice (paths must be loop-free)", name)
		}
		seen[name] = true
	}
	return nil
}

// linkNames renders the declared link names for error messages.
func (s *Spec) linkNames() string {
	names := make([]byte, 0, 16*len(s.Links))
	for i, l := range s.Links {
		if i > 0 {
			names = append(names, ", "...)
		}
		names = append(names, l.Name...)
	}
	return string(names)
}

// checkPathDAG verifies that the union of all paths' link-to-link hops is
// acyclic (Kahn's algorithm), so a topology spec always describes a
// physically meaningful DAG of bottlenecks.
func (s *Spec) checkPathDAG() error {
	n := len(s.Links)
	adj := make([][]int, n)
	indeg := make([]int, n)
	type edge struct{ a, b int }
	seenEdge := make(map[edge]bool)
	addPath := func(path []string) {
		for i := 1; i < len(path); i++ {
			e := edge{s.linkIndex(path[i-1]), s.linkIndex(path[i])}
			if seenEdge[e] {
				continue
			}
			seenEdge[e] = true
			adj[e.a] = append(adj[e.a], e.b)
			indeg[e.b]++
		}
	}
	for _, f := range s.Flows {
		addPath(f.Path)
	}
	for _, c := range s.Cross {
		addPath(c.Path)
	}
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
				cyc = append(cyc, s.Links[i].Name)
			}
		}
		return fmt.Errorf("flow paths induce a cycle through links %v (the link graph must be a DAG)", cyc)
	}
	return nil
}

// builtinSchemes names the model-free controllers the compiler provides
// itself; preference weights have no effect on them.
var builtinSchemes = map[string]bool{
	"cubic": true, "vegas": true, "bbr": true, "copa": true,
	"pcc-allegro": true, "pcc-vivace": true, "fixed": true,
}

// validate checks one link's parameters. ctx names the link in errors —
// "link" for the single-bottleneck form, "links[i] (name)" for topology
// entries, so a multi-link spec's failures point at the offending link.
// topo selects the delay convention: topology links carry a one-way
// delay_ms, the single bottleneck an rtt_ms.
func (l Link) validate(ctx string, topo bool) error {
	if topo {
		if l.RTTms != 0 {
			return fmt.Errorf("%s: topology links take delay_ms (one-way), not rtt_ms (got rtt_ms %g)", ctx, l.RTTms)
		}
		if !finitePos(l.DelayMs) {
			return fmt.Errorf("%s: delay_ms %g must be > 0", ctx, l.DelayMs)
		}
	} else {
		if l.DelayMs != 0 {
			return fmt.Errorf("%s: delay_ms belongs to topology links; a single bottleneck takes rtt_ms (got delay_ms %g)", ctx, l.DelayMs)
		}
		if l.Name != "" {
			return fmt.Errorf("%s: name belongs to topology links (a single bottleneck is unnamed, got %q)", ctx, l.Name)
		}
		if !finitePos(l.RTTms) {
			return fmt.Errorf("%s: rtt_ms %g must be > 0", ctx, l.RTTms)
		}
	}
	if l.QueuePkts < 0 {
		return fmt.Errorf("%s: queue_pkts %d must be >= 0", ctx, l.QueuePkts)
	}
	if !finiteNonNeg(l.LossRate) || l.LossRate >= 1 {
		return fmt.Errorf("%s: loss_rate %g must lie in [0, 1)", ctx, l.LossRate)
	}
	sources := 0
	if l.CapacityMbps != 0 {
		if !finitePos(l.CapacityMbps) {
			return fmt.Errorf("%s: capacity_mbps %g must be > 0", ctx, l.CapacityMbps)
		}
		sources++
	}
	if len(l.Schedule) > 0 {
		sources++
		if l.Schedule[0].AtSec != 0 {
			return fmt.Errorf("%s: schedule must start at at_sec 0, got %g", ctx, l.Schedule[0].AtSec)
		}
		anyCapacity := false
		for i, lv := range l.Schedule {
			if !finiteNonNeg(lv.AtSec) {
				return fmt.Errorf("%s: schedule[%d].at_sec %g must be finite and >= 0", ctx, i, lv.AtSec)
			}
			if !finiteNonNeg(lv.Mbps) {
				return fmt.Errorf("%s: schedule[%d].mbps %g must be >= 0", ctx, i, lv.Mbps)
			}
			if lv.Mbps > 0 {
				anyCapacity = true
			}
			if i > 0 && !(lv.AtSec > l.Schedule[i-1].AtSec) {
				return fmt.Errorf("%s: schedule times must be strictly increasing: schedule[%d].at_sec %g <= %g",
					ctx, i, lv.AtSec, l.Schedule[i-1].AtSec)
			}
		}
		if !anyCapacity {
			return fmt.Errorf("%s: schedule never provides capacity (every level is 0 Mbps)", ctx)
		}
		if l.ScheduleLoopSec != 0 {
			last := l.Schedule[len(l.Schedule)-1].AtSec
			if !finitePos(l.ScheduleLoopSec) || l.ScheduleLoopSec <= last {
				return fmt.Errorf("%s: schedule_loop_sec %g must exceed the last segment start %g", ctx, l.ScheduleLoopSec, last)
			}
		}
	} else if l.ScheduleLoopSec != 0 {
		return fmt.Errorf("%s: schedule_loop_sec is set without a schedule", ctx)
	}
	if l.TraceFile != "" {
		sources++
		if !finiteNonNeg(l.TraceBinMs) || (l.TraceBinMs != 0 && l.TraceBinMs < 1) {
			return fmt.Errorf("%s: trace_bin_ms %g must be 0 (default) or >= 1", ctx, l.TraceBinMs)
		}
	} else if l.TraceBinMs != 0 {
		return fmt.Errorf("%s: trace_bin_ms is set without a trace_file", ctx)
	}
	if sources != 1 {
		return fmt.Errorf("%s: exactly one of capacity_mbps, schedule or trace_file must be set (got %d)", ctx, sources)
	}
	return nil
}

func (f Flow) validate() error {
	if f.Scheme == "" {
		return fmt.Errorf("scheme is required")
	}
	if !finiteNonNeg(f.StartSec) {
		return fmt.Errorf("start_sec %g must be >= 0", f.StartSec)
	}
	if f.StopSec != 0 && (!finitePos(f.StopSec) || f.StopSec <= f.StartSec) {
		return fmt.Errorf("stop_sec %g must be 0 or > start_sec %g", f.StopSec, f.StartSec)
	}
	if f.RateMbps != 0 && !finitePos(f.RateMbps) {
		return fmt.Errorf("rate_mbps %g must be > 0", f.RateMbps)
	}
	if f.Scheme == "fixed" && f.RateMbps == 0 {
		return fmt.Errorf("scheme \"fixed\" requires rate_mbps")
	}
	if f.Scheme != "fixed" && f.RateMbps != 0 {
		return fmt.Errorf("rate_mbps is only meaningful for the \"fixed\" scheme (got scheme %q); use app.source_mbps for app-limited flows", f.Scheme)
	}
	if !finiteNonNeg(f.MIms) {
		return fmt.Errorf("mi_ms %g must be finite and >= 0", f.MIms)
	}
	if f.Weights != nil {
		if builtinSchemes[f.Scheme] {
			return fmt.Errorf("weights have no effect on built-in scheme %q; use a preference-driven scheme such as \"mocc\"", f.Scheme)
		}
		w := *f.Weights
		if !finiteNonNeg(w.Throughput) || !finiteNonNeg(w.Latency) || !finiteNonNeg(w.Loss) {
			return fmt.Errorf("weights must be finite and >= 0")
		}
		if w.Throughput+w.Latency+w.Loss <= 0 {
			return fmt.Errorf("weights must not all be zero")
		}
	}
	if f.App != nil {
		switch f.App.Kind {
		case "bulk":
			if !finitePos(f.App.FileMBytes) {
				return fmt.Errorf("bulk app requires file_mbytes > 0")
			}
			// 1 TB bound: keeps the packet budget far from int overflow
			// and any plausible experiment.
			if f.App.FileMBytes > 1e6 {
				return fmt.Errorf("bulk app file_mbytes %g exceeds the 1e6 (1 TB) limit", f.App.FileMBytes)
			}
			if f.App.SourceMbps != 0 {
				return fmt.Errorf("source_mbps has no effect on a bulk app (it belongs to kind \"rtc\")")
			}
		case "rtc":
			if !finitePos(f.App.SourceMbps) {
				return fmt.Errorf("rtc app requires source_mbps > 0")
			}
			if f.App.FileMBytes != 0 {
				return fmt.Errorf("file_mbytes has no effect on an rtc app (it belongs to kind \"bulk\")")
			}
		case "video":
			// No parameters: the default ABR player consumes the flow's
			// throughput series.
			if f.App.FileMBytes != 0 || f.App.SourceMbps != 0 {
				return fmt.Errorf("video app takes no parameters (got file_mbytes %g, source_mbps %g)",
					f.App.FileMBytes, f.App.SourceMbps)
			}
		default:
			return fmt.Errorf("unknown app kind %q (want bulk, rtc or video)", f.App.Kind)
		}
	}
	return nil
}

func (c Cross) validate() error {
	if !finitePos(c.RateMbps) {
		return fmt.Errorf("rate_mbps %g must be > 0", c.RateMbps)
	}
	if !finiteNonNeg(c.OnOffSec) {
		return fmt.Errorf("on_off_sec %g must be >= 0", c.OnOffSec)
	}
	if !finiteNonNeg(c.StartSec) {
		return fmt.Errorf("start_sec %g must be >= 0", c.StartSec)
	}
	if c.StopSec != 0 && (!finitePos(c.StopSec) || c.StopSec <= c.StartSec) {
		return fmt.Errorf("stop_sec %g must be 0 or > start_sec %g", c.StopSec, c.StartSec)
	}
	return nil
}
