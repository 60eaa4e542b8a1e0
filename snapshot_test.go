package mocc

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"mocc/internal/core"
	"mocc/internal/nn"
)

// FuzzLoadServingState feeds arbitrary bytes through the daemon's crash-safe
// resume path, LoadServingState, which must never panic and must never let
// a model through that cannot serve: whenever it accepts a file, the model
// is finite and a library over it answers a report with a finite rate. The
// seeds are a valid state of a fresh model, the same state truncated, one
// whose finite weights overflow the forward pass (the guard's case, not the
// loader's), testdata/corrupt-model.json as the state's model, and small
// states that stop at the format, epoch, validation and restore checks.
func FuzzLoadServingState(f *testing.F) {
	state := func(epoch uint64, m *core.Model) []byte {
		path := filepath.Join(f.TempDir(), "serve.state")
		if err := SaveServingState(path, epoch, &Model{m: m}); err != nil {
			f.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		return data
	}
	good := state(7, core.NewModel(core.HistoryLen, 1))
	f.Add(good)
	f.Add(good[:len(good)/2])
	huge := core.NewModel(core.HistoryLen, 2)
	for _, p := range huge.ActorParams() {
		for i := range p.Value {
			p.Value[i] = 1e300
		}
	}
	f.Add(state(1, huge))
	corrupt, err := os.ReadFile(filepath.Join("testdata", "corrupt-model.json"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(append(append([]byte(`{"format":"mocc-serving-state-v1","epoch":3,"model":`), corrupt...), '}'))
	f.Add(bytes.Replace(good, []byte("mocc-serving-state-v1"), []byte("mocc-serving-state-v0"), 1))
	f.Add([]byte(`{"format":"mocc-serving-state-v1","epoch":1,"model":{"format":"mocc-model-v1","params":[]}}`))
	f.Add([]byte(`{"format":"mocc-serving-state-v1","epoch":-1,"model":{"format":"mocc-model-v1","params":[{"name":"x","values":[1,"NaN"]}]}}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "serve.state")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, m, err := LoadServingState(path)
		if err != nil {
			return
		}
		if err := nn.CheckFinite(m.m.AllParams()); err != nil {
			t.Fatalf("LoadServingState accepted a non-finite model: %v", err)
		}
		lib, err := New(m, WithoutAdaptation())
		if err != nil {
			t.Fatalf("New over an accepted model: %v", err)
		}
		defer lib.Close()
		app, err := lib.Register(Weights{Thr: 0.6, Lat: 0.3, Loss: 0.1})
		if err != nil {
			t.Fatal(err)
		}
		rate, err := app.Report(steadyStatus(100, 95, 5, 50*time.Millisecond))
		if err != nil || math.IsNaN(rate) || math.IsInf(rate, 0) {
			t.Fatalf("accepted model served rate %v, err %v", rate, err)
		}
	})
}
