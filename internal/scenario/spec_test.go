package scenario

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"mocc/internal/cc"
	"mocc/internal/gym"
)

// tracesDir points at the repo-level shipped traces.
var tracesDir = filepath.Join("..", "..", "testdata", "traces")

// validSpec returns a minimal correct spec for mutation tests.
func validSpec() *Spec {
	return &Spec{
		Version:     SpecVersion,
		Name:        "t",
		DurationSec: 5,
		Link:        Link{RTTms: 40, QueuePkts: 100, CapacityMbps: 10},
		Flows:       []Flow{{Scheme: "cubic"}},
	}
}

func TestSpecJSONRoundTrip(t *testing.T) {
	s := validSpec()
	s.Description = "round trip"
	s.Link.LossRate = 0.01
	s.Flows = append(s.Flows, Flow{
		Scheme: "mocc", Label: "late", StartSec: 1, StopSec: 4,
		Weights: &Weights{Throughput: 0.8, Latency: 0.1, Loss: 0.1},
		App:     &App{Kind: "bulk", FileMBytes: 1},
	})
	s.Cross = []Cross{{RateMbps: 2, OnOffSec: 0.5}}
	data, err := s.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := Parse(data)
	if err != nil {
		t.Fatalf("Parse(JSON()): %v", err)
	}
	data2, err := back.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(data2) {
		t.Errorf("JSON round trip not stable:\n%s\nvs\n%s", data, data2)
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	_, err := Parse([]byte(`{"version":1,"name":"x","duration_sec":5,"link":{"rtt_ms":40,"capacity_mbps":10},"flows":[{"scheme":"cubic"}],"typo_field":1}`))
	if err == nil || !strings.Contains(err.Error(), "typo_field") {
		t.Fatalf("unknown field accepted, err=%v", err)
	}
}

func TestSpecValidation(t *testing.T) {
	cases := []struct {
		name    string
		mutate  func(*Spec)
		wantSub string
	}{
		{"bad-version", func(s *Spec) { s.Version = SpecVersion + 1 }, "version"},
		{"no-name", func(s *Spec) { s.Name = "" }, "name"},
		{"no-duration", func(s *Spec) { s.DurationSec = 0 }, "duration"},
		{"no-flows", func(s *Spec) { s.Flows = nil }, "flow"},
		{"no-rtt", func(s *Spec) { s.Link.RTTms = 0 }, "rtt_ms"},
		{"bad-loss", func(s *Spec) { s.Link.LossRate = 1.5 }, "loss_rate"},
		{"no-capacity", func(s *Spec) { s.Link.CapacityMbps = 0 }, "exactly one"},
		{"two-capacity-sources", func(s *Spec) {
			s.Link.Schedule = []Level{{AtSec: 0, Mbps: 5}}
		}, "exactly one"},
		{"schedule-start", func(s *Spec) {
			s.Link.CapacityMbps = 0
			s.Link.Schedule = []Level{{AtSec: 1, Mbps: 5}}
		}, "at_sec 0"},
		{"schedule-inf-time", func(s *Spec) {
			s.Link.CapacityMbps = 0
			s.Link.Schedule = []Level{{AtSec: 0, Mbps: 0}, {AtSec: math.Inf(1), Mbps: 5}}
		}, "at_sec"},
		{"schedule-order", func(s *Spec) {
			s.Link.CapacityMbps = 0
			s.Link.Schedule = []Level{{AtSec: 0, Mbps: 5}, {AtSec: 2, Mbps: 6}, {AtSec: 2, Mbps: 7}}
		}, "strictly increasing"},
		{"loop-too-short", func(s *Spec) {
			s.Link.CapacityMbps = 0
			s.Link.Schedule = []Level{{AtSec: 0, Mbps: 5}, {AtSec: 2, Mbps: 6}}
			s.Link.ScheduleLoopSec = 2
		}, "schedule_loop_sec"},
		{"loop-without-schedule", func(s *Spec) { s.Link.ScheduleLoopSec = 3 }, "without a schedule"},
		{"bin-without-trace", func(s *Spec) { s.Link.TraceBinMs = 50 }, "without a trace_file"},
		{"no-scheme", func(s *Spec) { s.Flows[0].Scheme = "" }, "scheme"},
		{"fixed-without-rate", func(s *Spec) { s.Flows[0] = Flow{Scheme: "fixed"} }, "rate_mbps"},
		{"stop-before-start", func(s *Spec) { s.Flows[0].StartSec = 3; s.Flows[0].StopSec = 2 }, "stop_sec"},
		{"zero-weights", func(s *Spec) {
			s.Flows[0].Scheme = "mocc"
			s.Flows[0].Weights = &Weights{}
		}, "weights"},
		{"weights-on-builtin", func(s *Spec) {
			s.Flows[0].Weights = &Weights{Throughput: 1, Latency: 1, Loss: 1}
		}, "no effect"},
		{"flow-starts-after-end", func(s *Spec) { s.Flows[0].StartSec = 5 }, "never run"},
		{"cross-starts-after-end", func(s *Spec) { s.Cross = []Cross{{RateMbps: 1, StartSec: 9}} }, "never run"},
		{"bad-app", func(s *Spec) { s.Flows[0].App = &App{Kind: "game"} }, "app kind"},
		{"bulk-no-size", func(s *Spec) { s.Flows[0].App = &App{Kind: "bulk"} }, "file_mbytes"},
		{"rtc-no-rate", func(s *Spec) { s.Flows[0].App = &App{Kind: "rtc"} }, "source_mbps"},
		{"bad-cross", func(s *Spec) { s.Cross = []Cross{{RateMbps: -1}} }, "rate_mbps"},
		{"nan-bin", func(s *Spec) {
			s.Link.CapacityMbps = 0
			s.Link.TraceFile = "x.trace"
			s.Link.TraceBinMs = math.NaN()
		}, "trace_bin_ms"},
		{"nan-mi", func(s *Spec) { s.Flows[0].MIms = math.NaN() }, "mi_ms"},
		{"inf-mi", func(s *Spec) { s.Flows[0].MIms = math.Inf(1) }, "mi_ms"},
		{"rate-on-reactive-scheme", func(s *Spec) { s.Flows[0].RateMbps = 100 }, "rate_mbps"},
		{"bulk-too-big", func(s *Spec) { s.Flows[0].App = &App{Kind: "bulk", FileMBytes: 2e16} }, "file_mbytes"},
		{"bulk-with-source", func(s *Spec) {
			s.Flows[0].App = &App{Kind: "bulk", FileMBytes: 1, SourceMbps: 3}
		}, "no effect"},
		{"rtc-with-file", func(s *Spec) {
			s.Flows[0].App = &App{Kind: "rtc", SourceMbps: 3, FileMBytes: 1}
		}, "no effect"},
		{"video-with-params", func(s *Spec) {
			s.Flows[0].App = &App{Kind: "video", SourceMbps: 3}
		}, "no parameters"},
	}
	for _, c := range cases {
		s := validSpec()
		c.mutate(s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid spec", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.wantSub) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.wantSub)
		}
	}
	if err := validSpec().Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
}

func TestCompileBuiltinsAndCross(t *testing.T) {
	s := validSpec()
	s.Flows = []Flow{
		{Scheme: "cubic"},
		{Scheme: "fixed", RateMbps: 2, Label: "pinned"},
		{Scheme: "bbr", App: &App{Kind: "bulk", FileMBytes: 0.15}},
		{Scheme: "vegas", App: &App{Kind: "rtc", SourceMbps: 1}},
	}
	s.Cross = []Cross{{RateMbps: 1}, {RateMbps: 2, OnOffSec: 0.5}}
	c, err := s.Compile(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(c.Flows), 6; got != want {
		t.Fatalf("compiled %d flows, want %d", got, want)
	}
	if c.NumFlows != 4 {
		t.Errorf("NumFlows = %d, want 4", c.NumFlows)
	}
	if c.Flows[1].Label != "pinned" {
		t.Errorf("label override lost: %q", c.Flows[1].Label)
	}
	wantBudget := int(0.15 * 1e6 / 1500)
	if c.Flows[2].PacketBudget != wantBudget {
		t.Errorf("bulk packet budget = %d, want %d", c.Flows[2].PacketBudget, wantBudget)
	}
	if c.Flows[4].Label != "cross-0" || c.Flows[5].Label != "cross-1" {
		t.Errorf("cross labels = %q, %q", c.Flows[4].Label, c.Flows[5].Label)
	}
	// Per-flow seeds must be deterministic and distinct.
	seen := map[int64]bool{}
	for _, f := range c.Flows {
		if seen[f.Seed] {
			t.Errorf("duplicate derived flow seed %d", f.Seed)
		}
		seen[f.Seed] = true
	}
}

func TestCompileUnknownScheme(t *testing.T) {
	s := validSpec()
	s.Flows[0].Scheme = "mocc"
	if _, err := s.Compile(CompileOptions{}); err == nil || !strings.Contains(err.Error(), "resolver") {
		t.Fatalf("unknown scheme error = %v, want mention of resolver", err)
	}
}

func TestCompileResolver(t *testing.T) {
	s := validSpec()
	s.Flows = []Flow{{Scheme: "mocc"}, {Scheme: "cubic"}}
	resolved := 0
	c, err := s.Compile(CompileOptions{Resolver: func(f Flow) (cc.Algorithm, error) {
		if f.Scheme == "mocc" {
			resolved++
			return cc.NewVegas(), nil // stand-in model
		}
		return nil, nil // fall through to built-ins
	}})
	if err != nil {
		t.Fatal(err)
	}
	if resolved != 1 {
		t.Errorf("resolver used %d times, want 1", resolved)
	}
	if got := c.Flows[1].Alg.Name(); got != "cubic" {
		t.Errorf("fall-through flow got %q, want cubic", got)
	}
}

func TestCompileTraceFile(t *testing.T) {
	s := validSpec()
	s.Link.CapacityMbps = 0
	s.Link.TraceFile = "cellular.trace"
	c, err := s.Compile(CompileOptions{BaseDir: tracesDir})
	if err != nil {
		t.Fatal(err)
	}
	if c.Link.Capacity.At(0) <= 0 {
		t.Errorf("trace-backed capacity At(0) = %g, want > 0", c.Link.Capacity.At(0))
	}
	// Missing file must surface the path.
	s.Link.TraceFile = "missing.trace"
	if _, err := s.Compile(CompileOptions{BaseDir: tracesDir}); err == nil || !strings.Contains(err.Error(), "missing.trace") {
		t.Fatalf("missing trace error = %v", err)
	}
}

func TestGymView(t *testing.T) {
	s := validSpec()
	s.Flows = []Flow{
		{Scheme: "cubic", MIms: 25},
		{Scheme: "fixed", RateMbps: 3, StartSec: 1, StopSec: 4},
	}
	s.Cross = []Cross{{RateMbps: 1.5, OnOffSec: 1}}
	cfg, err := s.Gym(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.LatencyMs != 20 {
		t.Errorf("LatencyMs = %g, want 20 (half of 40ms RTT)", cfg.LatencyMs)
	}
	if cfg.MIms != 25 {
		t.Errorf("MIms = %g, want 25", cfg.MIms)
	}
	if cfg.CrossTraffic == nil {
		t.Fatal("cross traffic not folded into gym config")
	}
	fixedPps := 3.0 * 1e6 / 8 / 1500
	onOffPps := 1.5 * 1e6 / 8 / 1500
	cases := []struct{ t, want float64 }{
		{0.5, onOffPps},            // cross on-phase, fixed flow not started
		{1.5, fixedPps},            // cross off-phase, fixed flow active
		{2.5, onOffPps + fixedPps}, // cross back on, fixed flow active
		{4.5, onOffPps},            // fixed flow stopped, cross on-phase
	}
	for _, c := range cases {
		if got := cfg.CrossTraffic.At(c.t); got != c.want {
			t.Errorf("CrossTraffic.At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

// TestGymViewPeakRateCap mirrors the netsim-path fix on the gym lowering: a
// schedule opening inside an outage must not under-cap the agent's rate
// via gym's At(0)-derived MaxRate default.
func TestGymViewPeakRateCap(t *testing.T) {
	s := validSpec()
	s.Link.CapacityMbps = 0
	s.Link.Schedule = []Level{{AtSec: 0, Mbps: 0}, {AtSec: 1, Mbps: 10}}
	cfg, err := s.Gym(CompileOptions{})
	if err != nil {
		t.Fatal(err)
	}
	peakPps := 10.0 * 1e6 / 8 / 1500
	if got, want := cfg.MaxRate, 8*peakPps; got != want {
		t.Fatalf("MaxRate = %g, want %g (8x schedule peak)", got, want)
	}
	env := gym.New(cfg)
	env.SetRate(peakPps) // must not be clamped below the link's peak
	if got := env.Rate(); got != peakPps {
		t.Errorf("rate clamped to %g, want %g", got, peakPps)
	}
}

// FuzzParseSpec feeds arbitrary bytes through the path every untrusted spec
// takes: Parse (decode + Validate) must never panic, whatever it returns,
// and a spec it accepts must also lower without panicking — onto topo when
// it declares links, onto netsim and the gym view otherwise (specs naming a
// trace_file are left at Parse: the file they name is not part of the
// input). Nothing is run. The seed corpus holds the shipped example specs,
// one generated spec per family — so version 2 links/path specs are in it —
// and truncated, unknown-field and wrong-version variants of one of each
// kind; `go test` executes the seeds, `go test -fuzz FuzzParseSpec` mutates
// them.
func FuzzParseSpec(f *testing.F) {
	examples, err := filepath.Glob(filepath.Join("..", "..", "examples", "scenarios", "*.json"))
	if err != nil || len(examples) < 3 {
		f.Fatalf("example specs: %v, %v", examples, err)
	}
	var corpus [][]byte
	for _, path := range examples {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		corpus = append(corpus, data)
	}
	for _, fam := range AllFamilies() {
		spec, err := Generate(fam, 1)
		if err != nil {
			f.Fatal(err)
		}
		data, err := spec.JSON()
		if err != nil {
			f.Fatal(err)
		}
		corpus = append(corpus, data)
	}
	for _, data := range corpus {
		f.Add(data)
		if len(data) > 1<<16 {
			continue // one untouched copy of the 10k-flow spec is enough
		}
		f.Add(data[:len(data)/2])
		f.Add(data[:len(data)-2])
		f.Add(bytes.Replace(data, []byte(`"name"`), []byte(`"nmae"`), 1))             // unknown field
		f.Add(bytes.Replace(data, []byte(`"version": 2`), []byte(`"version": 1`), 1)) // links under version 1
		f.Add(bytes.Replace(data, []byte(`"version": `), []byte(`"version": 9`), 1))  // version 91 / 92
	}
	f.Add([]byte(`{"version":2,"name":"x","duration_sec":1e308,"links":[{"name":"a","delay_ms":1e-300,"capacity_mbps":1e-300}],"flows":[{"scheme":"fixed","rate_mbps":1e300,"path":["a"]}]}`))
	f.Add([]byte(`{"version":1,"name":"x","duration_sec":5,"link":{"rtt_ms":40,"schedule":[{"at_sec":0,"mbps":0},{"at_sec":1e-9,"mbps":1}],"schedule_loop_sec":2e-9},"flows":[{"scheme":"cubic","app":{"kind":"bulk","file_mbytes":1e-9}}],"cross":[{"rate_mbps":1,"on_off_sec":1e-12}]}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Parse(data)
		if err != nil {
			return
		}
		if s.Link.TraceFile != "" {
			return
		}
		for _, l := range s.Links {
			if l.TraceFile != "" {
				return
			}
		}
		if s.Topology() {
			s.CompileTopo(CompileOptions{})
		} else {
			s.Compile(CompileOptions{})
		}
		s.Gym(CompileOptions{})
	})
}
