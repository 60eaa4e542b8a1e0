package nn

import (
	"bytes"
	"math"
	"math/rand"
	"os"
	"testing"
)

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
