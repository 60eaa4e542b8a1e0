package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"
)

// testSeconds is 1/20 of a real run: long enough for every workload to
// complete a few slices, short enough for plain `go test ./...`.
const testSeconds = runSeconds / 20.0

// The fixture is deterministic, so the tests train it once.
var sharedFixture = sync.OnceValues(trainFixture)

func runForTest(t *testing.T, workload string, seed int64, trace bool) *env {
	t.Helper()
	fix, err := sharedFixture()
	if err != nil {
		t.Fatal(err)
	}
	e, err := runWorkload(config{
		workload: workload, seed: seed, seconds: testSeconds, trace: trace, outDir: t.TempDir(), fix: fix,
	})
	if err != nil {
		t.Fatalf("%s seed %d trace %v: %v", workload, seed, trace, err)
	}
	var out bytes.Buffer
	if err := e.print(&out); err != nil {
		t.Fatal(err)
	}
	if len(e.incorrect) > 0 {
		t.Errorf("%s: output checks failed: %v", workload, e.incorrect)
	}
	if e.failed != 0 {
		t.Errorf("%s: %d of %d ops failed, want 0 at baseline", workload, e.failed, e.attempted)
	}
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	var res childResult
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
		t.Fatalf("last output line is not the result object: %v", err)
	}
	if got, want := len(res.Metrics), len(e.defs()); got != want {
		t.Errorf("%s: result carries %d metrics, want %d", workload, got, want)
	}
	for _, d := range e.defs() {
		m, ok := res.Metrics[d.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s is not emitted", workload, d.Name)
		case m.Unit != d.Unit:
			t.Errorf("%s: metric %s has unit %q, want %q", workload, d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Value < 0:
			t.Errorf("%s: metric %s = %v, want a finite non-negative number", workload, d.Name, m.Value)
		case !trace && m.Value == 0:
			t.Errorf("%s: end-to-end metric %s is 0", workload, d.Name)
		}
	}
	return e
}

// TestWorkloads runs all five workloads, untraced and traced, and checks
// that every metric BENCHMARK.json names is emitted with its unit. Nothing
// here asserts a time, so the workloads may share the machine.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			runForTest(t, w.Name, 1, false)
			e := runForTest(t, w.Name, 1, true)
			trace := filepath.Join(e.cfg.outDir, "trace-"+w.Name+".json")
			data, err := os.ReadFile(trace)
			if err != nil {
				t.Fatal(err)
			}
			var doc struct {
				Spans []struct {
					Name string `json:"name"`
				} `json:"spans"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				t.Fatalf("%s is not valid JSON: %v", trace, err)
			}
			if len(doc.Spans) == 0 {
				t.Errorf("%s holds no spans", trace)
			}
		})
	}
}

// TestServeCountersAtBaseline pins what the serve workloads' failure count
// is made of: nothing timed out, fell back, was shed or dropped.
func TestServeCountersAtBaseline(t *testing.T) {
	t.Parallel()
	e := runForTest(t, "serve-sparse", 3, true)
	for _, name := range []string{
		"transport.client_timeouts", "transport.client_fallbacks", "transport.client_shed",
		"transport.dropped", "transport.rejected", "transport.malformed",
		"serve.shed_queue", "serve.shed_deadline", "mocc.guard_faults", "mocc.fallback_active",
	} {
		if v := e.m[name]; v != 0 {
			t.Errorf("%s = %v, want 0 at baseline", name, v)
		}
	}
	// Batching is bypassed on serve-sparse: that is why the workload exists.
	if v := e.m["serve.avg_batch"]; v > 1.5 {
		t.Errorf("serve.avg_batch = %v on serve-sparse, want ~1", v)
	}
}

// TestSeedChangesInputsNotMetrics: another seed gives other generated
// inputs and the same metric set.
func TestSeedChangesInputsNotMetrics(t *testing.T) {
	t.Parallel()
	a, b := newRNG(1, 0), newRNG(2, 0)
	same := true
	for i := 0; i < 16; i++ {
		if a.status() != b.status() {
			same = false
		}
	}
	if same {
		t.Error("seeds 1 and 2 generate the same statuses")
	}
	if a, b := newRNG(1, 7), newRNG(1, 7); a.status() != b.status() || a.pref() != b.pref() {
		t.Error("the same seed and stream generate different inputs")
	}
	if s1, s2 := derivedSeeds(1, simSeeds), derivedSeeds(2, simSeeds); s1[0] == s2[0] {
		t.Error("seeds 1 and 2 derive the same scenario seeds")
	}
	for i := 0; i < 1000; i++ {
		st := a.status()
		if st.PacketsAcked+st.PacketsLost > st.PacketsSent || st.PacketsSent != math.Trunc(st.PacketsSent) {
			t.Fatalf("status %+v: counts must be whole packets with acked+lost <= sent", st)
		}
	}
	e1 := runForTest(t, "serve-sparse", 1, false)
	e2 := runForTest(t, "serve-sparse", 2, false)
	if len(e1.m) != len(e2.m) {
		t.Errorf("seed 1 emits %d metrics, seed 2 %d", len(e1.m), len(e2.m))
	}
	for name := range e1.m {
		if _, ok := e2.m[name]; !ok {
			t.Errorf("seed 2 does not emit %s", name)
		}
	}
}

// TestManifest holds BENCHMARK.json to what the program emits and to the
// limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("BENCHMARK.json differs from `go run ./bench -manifest`; regenerate it")
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range workloads {
		check(w.Name)
		if len(w.Why) > 200 || bytes.ContainsRune([]byte(w.Why), '\n') {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	hasSetup := false
	for _, m := range endToEnd {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside the contract's (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			hasSetup = true
		}
	}
	if !hasSetup {
		t.Error("end_to_end lacks setup_s in s, lower is better")
	}
	for _, m := range perLayer {
		check(m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: better %q", m.Name, m.Better)
		}
	}
	if len(workloads) < 2 || len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer metrics exceed the contract", len(workloads), len(endToEnd), len(perLayer))
	}
}

func TestQuartileSpreadMatchesPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quartileSpread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("quartileSpread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestQuietSliceOutvotesABurst: two thirds of the slices run 1.8x slower, as
// in a machine burst; the estimate must read as if none had.
func TestQuietSliceOutvotesABurst(t *testing.T) {
	var slices []sliceStat
	for i := 0; i < 45; i++ {
		s := sliceStat{opsPerS: 1000, p50ms: 40, p90ms: 44}
		if i >= 10 && i < 40 {
			s = sliceStat{opsPerS: 1000 / 1.8, p50ms: 40 * 1.8, p90ms: 44 * 1.8}
		}
		slices = append(slices, s)
	}
	e := summarize(slices)
	if e.opsPerS != 1000 || e.p50ms != 40 || e.p90ms != 44 {
		t.Errorf("estimate %+v, want the quiet slices' 1000 ops/s, 40 ms, 44 ms", e)
	}
	if e.opsIQRPct == 0 {
		t.Error("the burst must still show in the slice IQR diagnostic")
	}
}

// TestFloorsIgnoreContention: three inputs repeated twenty times each, all
// but one repeat of each slowed 1.3x to 1.9x as by a busy neighbour. The
// estimate must read as if none had been: every input at its floor.
func TestFloorsIgnoreContention(t *testing.T) {
	base := []float64{20, 30, 40} // ms per input; 1000 ops each
	var recs []batchRec
	for rep := 0; rep < 20; rep++ {
		for in, ms := range base {
			if rep != 3+in { // the one undisturbed repeat differs per input
				ms *= 1.3 + 0.03*float64(rep)
			}
			recs = append(recs, batchRec{input: in, latMs: ms, ops: 1000})
		}
	}
	e := floors(recs)
	if e.p50ms != 30 || math.Abs(e.p90ms-38) > 1e-9 {
		t.Errorf("p50 %v ms / p90 %v ms, want 30 / 38: the median and 90th percentile of the floors 20, 30, 40", e.p50ms, e.p90ms)
	}
	if want := 3000 / 0.090; math.Abs(e.opsPerS-want) > 1e-6 {
		t.Errorf("ops_per_s %v, want %v: one pass's ops over the sum of the floors", e.opsPerS, want)
	}
	if e.opsIQRPct == 0 || e.opsMedian >= e.opsPerS {
		t.Errorf("diagnostics %+v must still show the contention", e)
	}
}

// TestFloorsLeaveOutPeriodicCost pins what the floor rule does not see, so
// that nobody reads it for more: a cost that hits every fourth batch (a
// collection, a snapshot) moves neither the floor nor ops_per_s, only the
// per-batch diagnostics (and, when it allocates, alloc_bytes_per_op).
func TestFloorsLeaveOutPeriodicCost(t *testing.T) {
	var recs []batchRec
	for i := 0; i < 60; i++ {
		r := batchRec{latMs: 40, ops: 1000}
		if i%4 == 3 {
			r.latMs = 80
		}
		recs = append(recs, r)
	}
	e := floors(recs)
	if e.p50ms != 40 || e.p90ms != 40 || e.opsPerS != 25000 {
		t.Errorf("estimate %+v, want the floor's 40 ms and 25000 ops/s", e)
	}
	if e.p50IQRPct == 0 {
		t.Error("the periodic cost must show in the per-batch latency spread")
	}
	if got := floors(nil); got != (estimate{}) {
		t.Errorf("no batches gave %+v", got)
	}
}

func TestWindowSlices(t *testing.T) {
	// Two workers, one exchange per millisecond each, 1 ms latency, 600 ms:
	// two full 250 ms windows of 500 exchanges, the partial third dropped.
	rec := make([][]sample, 2)
	for w := range rec {
		for ms := 1; ms <= 600; ms++ {
			rec[w] = append(rec[w], sample{doneUs: uint32(ms*1000 - 1), latNs: 1e6})
		}
	}
	got := windowSlices(rec, 600*time.Millisecond)
	if len(got) != 2 {
		t.Fatalf("%d windows, want 2", len(got))
	}
	for _, s := range got {
		if s.opsPerS != 2000 || s.p50ms != 1 || s.p90ms != 1 {
			t.Errorf("window %+v, want 2000 ops/s at 1 ms", s)
		}
	}
}

func TestSelfTimeIsSpanMinusChildren(t *testing.T) {
	tr := newTracer()
	at := func(us int) time.Time { return tr.base.Add(time.Duration(us) * time.Microsecond) }
	for req := int32(0); req < 5; req++ {
		tr.add(spAppReport, at(0), at(100), req)
		tr.add(spClientAct, at(0), at(70), req)
		tr.add(spActBatch, at(0), at(20), req)
	}
	tr.link()
	st := tr.stats()
	if st[spAppReport].selfUs != 30 || st[spClientAct].selfUs != 50 || st[spActBatch].selfUs != 20 {
		t.Errorf("self times %v / %v / %v, want 30 / 50 / 20",
			st[spAppReport].selfUs, st[spClientAct].selfUs, st[spActBatch].selfUs)
	}
	spans := tr.recorded()
	if p := spans[1].parent; p != 0 {
		t.Errorf("Client.Act span of request 0 has parent %d, want 0 (its App.Report span)", p)
	}
}
