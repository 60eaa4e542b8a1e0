// Command bench is the repository's benchmark: five workloads over the
// serving path (DialServe → UDP → RateServer → shard queue → BatchInference
// → guard → wire), the online-adaptation loop and the two simulator
// engines, measured from outside through each layer's entry points.
//
//	go run ./bench -workload serve-fleet -seed 1            # end-to-end metrics
//	go run ./bench -workload serve-fleet -seed 1 -trace 1   # per-layer metrics + bench/out/trace-*.json
//	go run ./bench -aa 6                                    # A/A noise check over every workload
//
// One invocation runs one workload in one process. The last line of
// standard output is one JSON object {correct, attempted, failed, metrics};
// the lines before it name every metric with its unit and the hardware
// context. README.md defines the workloads, metrics and estimators.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	outDir   string
	fix      *fixture // nil: train it (tests share one across runs)
}

// env is one run's state: configuration, fixture, collected metric values
// and the outcome of the output checks.
type env struct {
	cfg config
	ctx string
	fix *fixture
	dir string  // scratch directory for model files, removed at exit
	tr  *tracer // nil on an untraced run
	// sink keeps the single-goroutine probes' results alive so the
	// compiler cannot drop the calls.
	sink float64

	m         map[string]float64
	attempted int64
	failed    int64
	incorrect []string // failed output checks
}

func (e *env) set(name string, v float64) { e.m[name] = v }

// wrong records a failed output check; the run still reports its metrics
// but prints "correct": false and exits non-zero.
func (e *env) wrong(format string, args ...any) {
	e.incorrect = append(e.incorrect, fmt.Sprintf(format, args...))
}

// budget returns the given share of the run's measuring time.
func (e *env) budget(share float64) time.Duration {
	return time.Duration(share * e.cfg.seconds * float64(time.Second))
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	fs.StringVar(&cfg.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the generated inputs")
	fs.Float64Var(&cfg.seconds, "seconds", runSeconds, "length of the measuring phase")
	trace := fs.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.outDir, "out", filepath.Join("bench", "out"), "directory for trace files and scratch model files")
	aa := fs.Int("aa", 0, "run every workload N times as two interleaved sets and compare their medians against the bounds")
	printManifest := fs.Bool("manifest", false, "print BENCHMARK.json and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = *trace != 0
	switch {
	case *printManifest:
		out, err := manifest()
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		stdout.Write(out)
		return 0
	case *aa > 0:
		return runAA(*aa, cfg, stdout, stderr)
	}
	if !(cfg.seconds > 0) || cfg.seconds > 120 {
		fmt.Fprintf(stderr, "bench: -seconds %v: want a value in (0, 120]\n", cfg.seconds)
		return 2
	}
	e, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if err := e.print(stdout); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	for _, msg := range e.incorrect {
		fmt.Fprintln(stderr, "bench: output check failed:", msg)
	}
	if len(e.incorrect) > 0 {
		return 1
	}
	return 0
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return strings.Join(names, " | ")
}

// runWorkload trains the fixture, runs the named workload and returns the
// filled env.
func runWorkload(cfg config) (*env, error) {
	var def *workloadDef
	for i := range workloads {
		if workloads[i].Name == cfg.workload {
			def = &workloads[i]
		}
	}
	if def == nil {
		return nil, fmt.Errorf("unknown -workload %q (want %s)", cfg.workload, workloadNames())
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	e := &env{cfg: cfg, ctx: hardwareContext(), dir: dir, m: make(map[string]float64)}
	if e.fix = cfg.fix; e.fix == nil {
		if e.fix, err = trainFixture(); err != nil {
			return nil, err
		}
	}
	if err := def.run(e); err != nil {
		return nil, fmt.Errorf("%s: %w", cfg.workload, err)
	}
	if cfg.trace {
		e.set("bench.fixture_train_s", e.fix.trainS)
		var ru rusage
		ru.read()
		e.set("bench.peak_rss_mb", ru.maxRSSMB)
		path := filepath.Join(cfg.outDir, "trace-"+cfg.workload+".json")
		if err := e.tr.write(path, cfg.workload, cfg.seed, e.ctx); err != nil {
			return nil, fmt.Errorf("writing trace: %w", err)
		}
	}
	if e.attempted < 1 {
		return nil, errors.New("no operation was attempted")
	}
	return e, nil
}

// defs returns the metric set this run reports.
func (e *env) defs() []metricDef {
	if e.cfg.trace {
		return perLayer
	}
	return endToEnd
}

// print writes one line per metric — name, value, unit and the hardware
// context — and the contract's JSON object as the last line.
func (e *env) print(w io.Writer) error {
	type val struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]val)
	for _, d := range e.defs() {
		v, ok := e.m[d.Name]
		if !ok && !e.cfg.trace {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
			e.wrong("metric %s = %v is not a finite non-negative number", d.Name, v)
			v = 0
		}
		metrics[d.Name] = val{v, d.Unit}
		fmt.Fprintf(w, "%s seed=%d %s %.6g %s | %s\n", e.cfg.workload, e.cfg.seed, d.Name, v, d.Unit, e.ctx)
	}
	fmt.Fprintf(w, "%s seed=%d ops_attempted %d ops_failed %d | %s\n", e.cfg.workload, e.cfg.seed, e.attempted, e.failed, e.ctx)
	out, err := json.Marshal(struct {
		Correct   bool           `json:"correct"`
		Attempted int64          `json:"attempted"`
		Failed    int64          `json:"failed"`
		Metrics   map[string]val `json:"metrics"`
	}{len(e.incorrect) == 0, e.attempted, e.failed, metrics})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}

// hardwareContext is the line every output line carries: what the numbers
// were measured on.
func hardwareContext() string {
	cpu := "unknown-cpu"
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if name, ok := strings.CutPrefix(line, "model name"); ok {
				cpu = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
				break
			}
		}
	}
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d %s commit=%s",
		cpu, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), commit())
}

// commit names the source revision: the build's VCS stamp when there is
// one, else .git/HEAD of the working directory, else "unknown" (the
// driver's checkout is not a repository).
func commit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && len(s.Value) >= 7 {
				return s.Value[:7]
			}
		}
	}
	for _, root := range []string{".", ".."} {
		head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
		if err != nil {
			continue
		}
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			data, err := os.ReadFile(filepath.Join(root, ".git", name))
			if err != nil {
				return "unknown"
			}
			ref = strings.TrimSpace(string(data))
		}
		if len(ref) >= 7 {
			return ref[:7]
		}
	}
	return "unknown"
}
