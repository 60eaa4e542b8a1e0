package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"strings"
)

// runAA is the benchmark's own noise check: every workload is run 2·n
// times by the same binary, as two interleaved sets (A,B,B,A,…) that share
// seeds 1..n, each run in a process of its own. For every (workload,
// end-to-end metric) pair it prints both medians, how much worse set B
// read than set A, each set's quartile spread, and the bound; it fails if
// a gap or a spread exceeds its bound or any run failed an op. -workload
// restricts the check to one workload.
func runAA(n int, cfg config, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	ctx := hardwareContext()
	fmt.Fprintf(stdout, "A/A over %d runs per set, %g s each | %s\n", n, cfg.seconds, ctx)
	fmt.Fprintf(stdout, "%-13s %-19s %14s %14s %7s %9s %9s %6s\n",
		"workload", "metric", "median A", "median B", "gap %", "spread A%", "spread B%", "bound%")
	bad := 0
	for _, w := range workloads {
		if cfg.workload != "" && cfg.workload != w.Name {
			continue
		}
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*n; i++ {
			// A,B,B,A,A,B,B,A…: position i belongs to set B when i mod 4
			// is 1 or 2, so neither set is always first.
			set := 0
			if i%4 == 1 || i%4 == 2 {
				set = 1
			}
			seed := int64(i/2 + 1)
			res, err := runChild(self, w.Name, seed, cfg, stderr)
			if err != nil {
				fmt.Fprintf(stderr, "bench: %s seed %d: %v\n", w.Name, seed, err)
				return 1
			}
			if res.Failed > 0 || !res.Correct {
				fmt.Fprintf(stdout, "%-13s seed %d: %d of %d ops failed, correct=%v\n", w.Name, seed, res.Failed, res.Attempted, res.Correct)
				bad++
			}
			for name, v := range res.Metrics {
				sets[set][name] = append(sets[set][name], v.Value)
			}
		}
		for _, m := range endToEnd {
			a, b := sets[0][m.Name], sets[1][m.Name]
			ma, mb := median(a), median(b)
			gap := 100 * (mb - ma) / ma
			if m.Better == "higher" {
				gap = -gap
			}
			sa, sb := 100*quartileSpread(a), 100*quartileSpread(b)
			mark := ""
			// setup_s is gated on its medians only: its spread is that of
			// a few short set-ups and is reported, not bounded.
			if gap > 100*m.Bound || (m.Name != "setup_s" && (sa > 100*m.Bound || sb > 100*m.Bound)) {
				mark = "  <-- over bound"
				bad++
			}
			fmt.Fprintf(stdout, "%-13s %-19s %14.6g %14.6g %7.2f %9.2f %9.2f %6.1f%s\n",
				w.Name, m.Name, ma, mb, gap, sa, sb, 100*m.Bound, mark)
		}
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "A/A FAILED: %d findings\n", bad)
		return 1
	}
	fmt.Fprintln(stdout, "A/A ok: every gap and spread is within its bound, no op failed")
	return 0
}

// childResult is the contract's last-line JSON object.
type childResult struct {
	Correct   bool  `json:"correct"`
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// runChild runs one workload in a child process and parses its result.
func runChild(self, workload string, seed int64, cfg config, stderr io.Writer) (childResult, error) {
	var res childResult
	var out bytes.Buffer
	cmd := exec.Command(self,
		"-workload", workload,
		"-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'g', -1, 64),
		"-out", cfg.outDir)
	cmd.Stdout = &out
	cmd.Stderr = stderr
	if err := cmd.Run(); err != nil {
		return res, err
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return res, fmt.Errorf("parsing result line: %w", err)
	}
	return res, nil
}

// quartileSpread is the distance between the first and third quartile as a
// share of the median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives (the "exclusive" method) — the
// statistic the PR driver gates on.
func quartileSpread(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		return 0
	}
	at := func(p float64) float64 {
		pos := p * float64(n+1) // 1-based
		lo := int(pos)
		if lo < 1 {
			lo = 1
		}
		if lo > n-1 {
			lo = n - 1
		}
		return s[lo-1] + (s[lo]-s[lo-1])*(pos-float64(lo))
	}
	return (at(0.75) - at(0.25)) / quantile(s, 0.5)
}
