package nn

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"os"
	"testing"
)

// specialValues are the floating-point inputs every kernel comparison mixes
// in: signed zeros, denormals, the extremes, infinities and NaNs with
// distinct payloads.
var specialValues = []float64{
	0, math.Copysign(0, -1), 1, -1,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1040,
	math.MaxFloat64, -math.MaxFloat64, math.Inf(1), math.Inf(-1),
	math.NaN(), math.Float64frombits(0x7ff8_0000_dead_beef), math.Float64frombits(0xfff0_0000_0000_0001),
}

// sameSnapshot reports the first difference between two snapshots, comparing
// values by bit pattern.
func sameSnapshot(t *testing.T, label string, got, want Snapshot) {
	t.Helper()
	if got.Format != want.Format || len(got.Params) != len(want.Params) {
		t.Fatalf("%s: format %q with %d params, want %q with %d",
			label, got.Format, len(got.Params), want.Format, len(want.Params))
	}
	for i, w := range want.Params {
		g := got.Params[i]
		if g.Name != w.Name || len(g.Values) != len(w.Values) {
			t.Fatalf("%s: param %d is %q with %d values, want %q with %d",
				label, i, g.Name, len(g.Values), w.Name, len(w.Values))
		}
		for j := range w.Values {
			if math.Float64bits(g.Values[j]) != math.Float64bits(w.Values[j]) {
				t.Fatalf("%s: %s[%d] = %v, want %v", label, w.Name, j, g.Values[j], w.Values[j])
			}
		}
	}
}

// FuzzReadSnapshot feeds arbitrary bytes through the model-file path —
// ReadSnapshot, then Restore into a small network — which must never panic
// and must never let a non-finite or misshapen snapshot through: whenever
// Restore succeeds the network is finite and writing it back out and reading
// it in again reproduces every value bit for bit. A snapshot refreshed in
// place (OnlineAdapt's rollback point) must equal a freshly taken one while
// keeping its storage.
func FuzzReadSnapshot(f *testing.F) {
	newNet := func(seed int64) []*Param {
		return NewMLP(rand.New(rand.NewSource(seed)), 3, 4, 2).Params()
	}
	encode := func(s Snapshot) []byte {
		var b bytes.Buffer
		if err := s.Write(&b); err != nil {
			f.Fatal(err)
		}
		return b.Bytes()
	}
	good := encode(TakeSnapshot(newNet(1)))
	f.Add(good)
	f.Add(good[:len(good)/2])
	f.Add(bytes.Replace(good, []byte(snapshotFormat), []byte("mocc-model-v0"), 1))
	f.Add(encode(TakeSnapshot(NewMLP(rand.New(rand.NewSource(1)), 3, 5, 2).Params())))
	f.Add(bytes.Replace(good, []byte("[0,0,0,0]"), []byte(`[0,"NaN",1e999,"-Inf"]`), 1))
	f.Add([]byte(`{"format":"mocc-model-v1","params":[{"name":"x","values":[null,"bogus",{}]}]}`))
	corrupt, err := os.ReadFile("../../testdata/corrupt-model.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := ReadSnapshot(bytes.NewReader(data))
		if err != nil {
			return
		}
		ps := newNet(2)
		if err := s.Restore(ps); err != nil {
			return
		}
		if err := CheckFinite(ps); err != nil {
			t.Fatalf("Restore accepted a non-finite snapshot: %v", err)
		}
		snap := TakeSnapshot(ps)
		var out bytes.Buffer
		if err := snap.Write(&out); err != nil {
			t.Fatal(err)
		}
		back, err := ReadSnapshot(&out)
		if err != nil {
			t.Fatalf("reading back a written snapshot: %v", err)
		}
		sameSnapshot(t, "write/read round trip", back, snap)

		stale := TakeSnapshot(newNet(3))
		storage := &stale.Params[0].Values[0]
		stale.Refresh(ps)
		sameSnapshot(t, "in-place refresh", stale, snap)
		if &stale.Params[0].Values[0] != storage {
			t.Fatal("refreshing a snapshot of the same network reallocated its storage")
		}
	})
}

// fuzzShape packs an MLP of len(widths)-1 Linear layers (one to three, each
// width 1…64) into FuzzEvaluatorForwardBatch's shape argument.
func fuzzShape(widths ...int) uint32 {
	s := uint32(len(widths) - 2)
	for i, w := range widths {
		s |= uint32(w-1) << (2 + 6*i)
	}
	return s
}

// FuzzEvaluatorForwardBatch pins both batched forwards to the single-row
// one: for a one- to three-layer MLP of widths 1…64 with drawn biases, a
// batch of 1…64 rows whose inputs mix special values, raw bit patterns (any
// NaN payload) and finite draws, every row of Evaluator.ForwardBatch
// (serving) and of MLP.ForwardBatch (training) is bit-equal to MLP.Forward
// on that row alone. The seeds run with every
// `go test`: the model's own layer shapes at n = 1, 8, 13 and 64, every
// special value, and column-path batches of 4, 5, 9 and 13 rows whose
// output width is not a multiple of four. Below four rows both sides run
// linearRows, so there it checks only that rows do not interact; the
// kernels under linearRows are FuzzLinearKernels' subject.
func FuzzEvaluatorForwardBatch(f *testing.F) {
	allSpecial := make([]byte, len(specialValues))
	for i := range allSpecial {
		allSpecial[i] = byte(i)
	}
	rawNaN := binary.LittleEndian.AppendUint64([]byte{64}, 0x7ff0_0000_0000_0bad)
	f.Add(fuzzShape(3, 16), uint8(0), int64(1), allSpecial)
	f.Add(fuzzShape(46, 64, 32, 1), uint8(7), int64(2), rawNaN)
	f.Add(fuzzShape(64, 32, 1), uint8(63), int64(3), append(allSpecial, rawNaN...))
	f.Add(fuzzShape(5, 1, 9), uint8(2), int64(4), []byte{})
	f.Add(fuzzShape(7, 6), uint8(3), int64(5), allSpecial)
	f.Add(fuzzShape(3, 9, 5), uint8(4), int64(6), rawNaN)
	f.Add(fuzzShape(17, 2), uint8(8), int64(7), allSpecial)
	f.Add(fuzzShape(10, 13, 7), uint8(12), int64(8), append(rawNaN, allSpecial...))
	f.Add(fuzzShape(46, 64, 32, 1), uint8(12), int64(9), allSpecial)

	f.Fuzz(func(t *testing.T, shape uint32, rows uint8, seed int64, data []byte) {
		widths := make([]int, 2+shape%3)
		for i := range widths {
			widths[i] = 1 + int((shape>>(2+6*i))&63)
		}
		n, in, out := 1+int(rows%64), widths[0], widths[len(widths)-1]
		rng := rand.New(rand.NewSource(seed))
		mlp := randomBiases(NewMLP(rng, widths...), rng)

		// Each input takes a tag byte: a special value, the raw bits of the
		// next eight bytes, or a finite draw of mixed magnitude; inputs past
		// the end of data are plain normal draws.
		x := make([]float64, n*in)
		for i := range x {
			x[i] = rng.NormFloat64()
			if len(data) == 0 {
				continue
			}
			tag := data[0]
			data = data[1:]
			switch {
			case tag < 64:
				x[i] = specialValues[int(tag)%len(specialValues)]
			case tag < 96 && len(data) >= 8:
				x[i] = math.Float64frombits(binary.LittleEndian.Uint64(data))
				data = data[8:]
			default:
				x[i] *= math.Exp2(float64(int(tag)%41 - 20))
			}
		}

		batched := []struct {
			name string
			got  []float64
		}{
			{"Evaluator.ForwardBatch", mlp.NewEvaluator().ForwardBatch(x, n)},
			{"MLP.ForwardBatch", append([]float64(nil), mlp.ForwardBatch(x, n)...)},
		}
		for r := 0; r < n; r++ {
			want := mlp.Forward(x[r*in : (r+1)*in])
			for o, w := range want {
				for _, c := range batched {
					if g := c.got[r*out+o]; math.Float64bits(g) != math.Float64bits(w) {
						t.Fatalf("widths %v n %d row %d out %d: %s %016x (%v), MLP.Forward %016x (%v)",
							widths, n, r, o, c.name, math.Float64bits(g), g, math.Float64bits(w), w)
					}
				}
			}
		}
	})
}
