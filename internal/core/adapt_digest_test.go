package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"mocc/internal/objective"
	"mocc/internal/trace"
)

// adaptDigestGolden is the digest of adaptDigestRun on amd64, computed when
// training's batched forward became serving's row order (every (row,
// output) summed from zero in index order, the bias last, so a batch row
// has the bits of the n = 1 forward) and the same with or without AVX:
// every kernel the adaptation step runs must leave each reward and each
// parameter bit where that implementation left it.
const adaptDigestGolden = "809388c1294d4bac328e28a6aa172cd66e9e36675b23cf0e57a60fc043d8a90b"

// digestAdapter builds the pinned adaptation set-up: a fresh model, the
// default adaptation settings at seed 3 over the training distribution, and
// two registered objectives to replay.
func digestAdapter(tb testing.TB) *Adapter {
	tb.Helper()
	cfg := DefaultAdaptConfig()
	cfg.Seed = 3
	cfg.Envs = TrainingEnvs(trace.TrainingRanges(), HistoryLen)
	a, err := NewAdapter(NewModel(HistoryLen, 7), cfg)
	if err != nil {
		tb.Fatal(err)
	}
	a.Register(objective.Weights{Thr: 0.6, Lat: 0.3, Loss: 0.1})
	a.Register(objective.Weights{Thr: 0.2, Lat: 0.7, Loss: 0.1})
	return a
}

var digestW = objective.Weights{Thr: 0.4, Lat: 0.4, Loss: 0.2}

// adaptDigestRun takes six adaptation steps and hashes the little-endian
// bits of the six rewards followed by every parameter value in AllParams
// order.
func adaptDigestRun(tb testing.TB) string {
	tb.Helper()
	a := digestAdapter(tb)
	h := sha256.New()
	var b [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
		h.Write(b[:])
	}
	for i := 0; i < 6; i++ {
		put(a.Step(digestW))
	}
	for _, p := range a.Model.AllParams() {
		for _, v := range p.Value {
			put(v)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

func TestAdaptStepGoldenDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden digest was computed with the amd64 kernels, running on %s", runtime.GOARCH)
	}
	if got := adaptDigestRun(t); got != adaptDigestGolden {
		t.Fatalf("adaptation digest %s, want %s", got, adaptDigestGolden)
	}
}
