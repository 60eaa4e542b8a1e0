package trace

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// FuzzParseMahimahi feeds arbitrary text and bin widths to ParseMahimahi,
// which must never panic, and whenever it accepts a trace must return a
// schedule every replay can use: a positive finite period, finite segment
// starts, and finite, non-negative rates. The seeds are the shipped traces
// under testdata/traces and the edge cases of the unit tests.
//
// Inputs with a run of six or more digits are skipped: at 1 ms bins such a
// timestamp asks for up to maxMahimahiBins segments, hundreds of MB per
// input, which would make the fuzzer's workers the largest process on the
// machine without reaching any code a five-digit trace does not.
func FuzzParseMahimahi(f *testing.F) {
	shipped, err := filepath.Glob(filepath.Join("..", "..", "testdata", "traces", "*.trace"))
	if err != nil || len(shipped) == 0 {
		f.Fatalf("no shipped traces: %v", err)
	}
	for _, p := range shipped {
		data, err := os.ReadFile(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data, 0.0)
		f.Add(data, 1.0)
	}
	f.Add([]byte("0\n100\n"), 1e-6)
	f.Add([]byte("0\n21\n"), 1.4)
	f.Add([]byte("# comment\n\n5\n5\n5\n"), 0.0)
	f.Add([]byte("0\n0\n"), 0.0)
	f.Add([]byte("10\n3\n"), 0.0)
	f.Add([]byte("-1\n"), 0.0)
	f.Add([]byte("1\n2\n3\n4\n1525\n"), 6.1)

	f.Fuzz(func(t *testing.T, data []byte, binMs float64) {
		digits := 0
		for _, c := range data {
			if c < '0' || c > '9' {
				digits = 0
			} else if digits++; digits >= 6 {
				return
			}
		}
		l, err := ParseMahimahi(bytes.NewReader(data), MahimahiOptions{BinMs: binMs})
		if err != nil {
			return
		}
		if p := l.Period(); !(p > 0) || math.IsInf(p, 0) {
			t.Fatalf("accepted trace has period %v", p)
		}
		for i := 0; i < l.NumLevels(); i++ {
			start, rate := l.Level(i)
			if math.IsNaN(start) || math.IsInf(start, 0) || start < 0 || start >= l.Period() {
				t.Fatalf("level %d of %d starts at %v in a %v s period", i, l.NumLevels(), start, l.Period())
			}
			if math.IsNaN(rate) || math.IsInf(rate, 0) || rate < 0 {
				t.Fatalf("level %d of %d has rate %v", i, l.NumLevels(), rate)
			}
		}
	})
}
