package mocc

import (
	"crypto/sha256"
	"encoding/hex"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"
)

// trainOnce shares one quick-trained library across tests.
var (
	libOnce sync.Once
	testLib *Library
	libErr  error
)

func sharedLibrary(t *testing.T) *Library {
	t.Helper()
	libOnce.Do(func() {
		testLib, libErr = Train(QuickTraining())
	})
	if libErr != nil {
		t.Fatalf("training library: %v", libErr)
	}
	return testLib
}

func steadyStatus(sent, acked, lost float64, rtt time.Duration) Status {
	return Status{
		Duration:     40 * time.Millisecond,
		PacketsSent:  sent,
		PacketsAcked: acked,
		PacketsLost:  lost,
		AvgRTT:       rtt,
		MinRTT:       40 * time.Millisecond,
	}
}

func TestWeightsNormalize(t *testing.T) {
	w := Weights{8, 1, 1}.Normalize()
	if math.Abs(w.Thr+w.Lat+w.Loss-1) > 1e-9 {
		t.Errorf("normalized weights sum to %v", w.Thr+w.Lat+w.Loss)
	}
	if math.Abs(w.Thr-0.8) > 1e-9 {
		t.Errorf("Thr = %v, want 0.8", w.Thr)
	}
}

func TestPresetsAreValid(t *testing.T) {
	for _, w := range []Weights{ThroughputPreference, LatencyPreference, RTCPreference, BalancedPreference} {
		if _, err := w.internal(); err != nil {
			t.Errorf("preset %+v invalid: %v", w, err)
		}
	}
}

func TestRegisterReportLoop(t *testing.T) {
	lib := sharedLibrary(t)
	app, err := lib.Register(ThroughputPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Unregister()

	if app.Rate() <= 0 {
		t.Fatalf("initial rate %v", app.Rate())
	}
	if got := app.Weights(); got != ThroughputPreference {
		t.Errorf("Weights() = %+v", got)
	}

	// Drive the handle loop for a while; rates must stay positive/finite
	// and Report's return must match the published Rate.
	rate := app.Rate()
	for i := 0; i < 50; i++ {
		sent := rate * 0.04
		var err error
		rate, err = app.Report(steadyStatus(sent, sent, 0, 40*time.Millisecond))
		if err != nil {
			t.Fatal(err)
		}
		if rate <= 0 || math.IsNaN(rate) {
			t.Fatalf("rate %v at iteration %d", rate, i)
		}
		if got := app.Rate(); got != rate {
			t.Fatalf("Rate() = %v, Report returned %v", got, rate)
		}
	}
}

func TestRegisterRejectsInvalidWeights(t *testing.T) {
	lib := sharedLibrary(t)
	for _, w := range []Weights{{0, 0.5, 0.5}, {1, 0, 0}, {0.5, 0.5, 0.5}} {
		if _, err := lib.Register(w); err == nil {
			t.Errorf("Register(%+v) accepted invalid weights", w)
		}
	}
}

func TestMultipleAppsIndependentRates(t *testing.T) {
	lib := sharedLibrary(t)
	thr, err := lib.Register(ThroughputPreference)
	if err != nil {
		t.Fatal(err)
	}
	lat, err := lib.Register(LatencyPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer thr.Unregister()
	defer lat.Unregister()

	if lib.Apps() < 2 {
		t.Errorf("Apps = %d", lib.Apps())
	}
	if thr.ID() == lat.ID() {
		t.Errorf("handles share AppID %d", thr.ID())
	}

	// Feed both apps identical congestion signals (queueing RTT rising);
	// the two preferences may react differently but both must stay sane.
	for i := 0; i < 30; i++ {
		st := steadyStatus(40, 38, 2, time.Duration(60+i)*time.Millisecond)
		if _, err := thr.Report(st); err != nil {
			t.Fatal(err)
		}
		if _, err := lat.Report(st); err != nil {
			t.Fatal(err)
		}
	}
	if thr.Rate() <= 0 || lat.Rate() <= 0 {
		t.Fatalf("rates: %v, %v", thr.Rate(), lat.Rate())
	}
}

func TestUnregisteredHandleErrors(t *testing.T) {
	lib := sharedLibrary(t)
	app, err := lib.Register(BalancedPreference)
	if err != nil {
		t.Fatal(err)
	}
	if err := app.Unregister(); err != nil {
		t.Fatal(err)
	}
	if err := app.Unregister(); err == nil {
		t.Error("double Unregister accepted")
	}
	if _, err := app.Report(steadyStatus(10, 10, 0, time.Millisecond)); err == nil {
		t.Error("Report on unregistered handle accepted")
	}
	if err := app.SetWeights(LatencyPreference); err == nil {
		t.Error("SetWeights on unregistered handle accepted")
	}
	if _, ok := lib.App(app.ID()); ok {
		t.Error("unregistered app still resolvable by ID")
	}
}

func TestStatusValidation(t *testing.T) {
	lib := sharedLibrary(t)
	app, err := lib.Register(BalancedPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Unregister()

	good := steadyStatus(50, 48, 2, 45*time.Millisecond)
	cases := []struct {
		name   string
		mutate func(*Status)
	}{
		{"zero duration", func(s *Status) { s.Duration = 0 }},
		{"negative duration", func(s *Status) { s.Duration = -time.Millisecond }},
		{"negative sent", func(s *Status) { s.PacketsSent = -1 }},
		{"negative acked", func(s *Status) { s.PacketsAcked = -3 }},
		{"negative lost", func(s *Status) { s.PacketsLost = -0.5 }},
		{"NaN sent", func(s *Status) { s.PacketsSent = math.NaN() }},
		{"Inf sent", func(s *Status) { s.PacketsSent = math.Inf(1) }},
		{"acked+lost > sent", func(s *Status) { s.PacketsAcked = 49; s.PacketsLost = 2 }},
		{"negative RTT", func(s *Status) { s.AvgRTT = -time.Millisecond }},
	}
	for _, tc := range cases {
		st := good
		tc.mutate(&st)
		if _, err := app.Report(st); err == nil {
			t.Errorf("%s: Report accepted invalid status %+v", tc.name, st)
		}
	}
	// The compat layer validates through the same path.
	v1 := lib.V1()
	bad := good
	bad.PacketsLost = 10
	if err := v1.ReportStatus(app.ID(), bad); err == nil {
		t.Error("V1.ReportStatus accepted acked+lost > sent")
	}
	// The good status still passes.
	if _, err := app.Report(good); err != nil {
		t.Errorf("valid status rejected: %v", err)
	}
}

// TestCompatEquivalence drives the same preference and status sequence
// through the §5 three-call layer and the handle API: the rate sequences
// must be identical.
func TestCompatEquivalence(t *testing.T) {
	lib := sharedLibrary(t)
	v1 := lib.V1()

	id, err := v1.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer v1.Unregister(id)
	app, err := lib.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Unregister()

	r1, err := v1.GetSendingRate(id)
	if err != nil {
		t.Fatal(err)
	}
	if r2 := app.Rate(); r1 != r2 {
		t.Fatalf("initial rates differ: v1 %v vs handle %v", r1, r2)
	}

	rate := app.Rate()
	for i := 0; i < 60; i++ {
		// A mildly adversarial trajectory: growing RTT, periodic loss.
		lost := 0.0
		if i%7 == 0 {
			lost = 3
		}
		sent := rate*0.04 + lost
		st := steadyStatus(sent, sent-lost, lost, time.Duration(45+i%20)*time.Millisecond)

		if err := v1.ReportStatus(id, st); err != nil {
			t.Fatal(err)
		}
		v1Rate, err := v1.GetSendingRate(id)
		if err != nil {
			t.Fatal(err)
		}
		rate, err = app.Report(st)
		if err != nil {
			t.Fatal(err)
		}
		if v1Rate != rate {
			t.Fatalf("iteration %d: v1 rate %v != handle rate %v", i, v1Rate, rate)
		}
	}
}

// TestSetWeightsLive checks live retuning semantics: set+revert between
// reports is a no-op relative to a control app, and the replay-pool
// reference moves with the preference.
func TestSetWeightsLive(t *testing.T) {
	lib := sharedLibrary(t)
	control, err := lib.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer control.Unregister()
	tuned, err := lib.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer tuned.Unregister()

	for i := 0; i < 20; i++ {
		st := steadyStatus(50, 49, 1, time.Duration(50+i)*time.Millisecond)
		rc, err := control.Report(st)
		if err != nil {
			t.Fatal(err)
		}
		// Retune away and back between reports: the preference
		// sub-network is the only thing that changed, so reverting
		// restores identical behaviour.
		if err := tuned.SetWeights(ThroughputPreference); err != nil {
			t.Fatal(err)
		}
		if err := tuned.SetWeights(RTCPreference); err != nil {
			t.Fatal(err)
		}
		rt, err := tuned.Report(st)
		if err != nil {
			t.Fatal(err)
		}
		if rc != rt {
			t.Fatalf("iteration %d: set+revert changed the rate (%v vs %v)", i, rt, rc)
		}
	}
	if err := tuned.SetWeights(Weights{0.2, 0.2, 0.6}); err != nil {
		t.Fatal(err)
	}
	if got := tuned.Weights(); math.Abs(got.Loss-0.6) > 1e-12 {
		t.Errorf("Weights() = %+v after retune", got)
	}
	if err := tuned.SetWeights(Weights{0.5, 0.5, 0}); err == nil {
		t.Error("SetWeights accepted invalid weights")
	}
}

// TestUnregisterReleasesReplayPool covers the reference-counted replay
// pool: the last app holding a preference drops it on unregister, and
// SetWeights moves the reference.
func TestUnregisterReleasesReplayPool(t *testing.T) {
	lib := sharedLibrary(t)
	pool := lib.adapter.Pool()
	w := Weights{0.37, 0.33, 0.30}
	iw, err := w.internal()
	if err != nil {
		t.Fatal(err)
	}

	a1, err := lib.Register(w)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := lib.Register(w)
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Refs(iw); got != 2 {
		t.Fatalf("Refs = %d after two registrations, want 2", got)
	}
	if err := a1.Unregister(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Refs(iw); got != 1 {
		t.Fatalf("Refs = %d after one unregister, want 1", got)
	}

	// SetWeights moves the reference to the new preference.
	w2 := Weights{0.31, 0.29, 0.40}
	iw2, err := w2.internal()
	if err != nil {
		t.Fatal(err)
	}
	if err := a2.SetWeights(w2); err != nil {
		t.Fatal(err)
	}
	if got := pool.Refs(iw); got != 0 {
		t.Errorf("old preference still referenced (Refs = %d) after SetWeights", got)
	}
	if got := pool.Refs(iw2); got != 1 {
		t.Errorf("new preference Refs = %d after SetWeights, want 1", got)
	}

	if err := a2.Unregister(); err != nil {
		t.Fatal(err)
	}
	if got := pool.Refs(iw2); got != 0 {
		t.Errorf("Refs = %d after last unregister, want 0", got)
	}
}

func TestV1UnknownAppErrors(t *testing.T) {
	lib := sharedLibrary(t)
	v1 := lib.V1()
	if _, err := v1.GetSendingRate(AppID(9999)); err == nil {
		t.Error("GetSendingRate accepted unknown app")
	}
	if err := v1.ReportStatus(AppID(9999), steadyStatus(10, 10, 0, time.Millisecond)); err == nil {
		t.Error("ReportStatus accepted unknown app")
	}
	if err := v1.Unregister(AppID(9999)); err == nil {
		t.Error("Unregister accepted unknown app")
	}
}

func TestAppStatsTelemetry(t *testing.T) {
	now := time.Unix(1000, 0)
	clock := func() time.Time { return now }

	lib := sharedLibrary(t)
	// Rebind the clock for a deterministic-lifecycle handle: build a
	// second library over the same trained model.
	lib2, err := New(&Model{m: lib.model}, WithoutAdaptation(), WithClock(clock), WithInitialRTT(40*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	app, err := lib2.Register(ThroughputPreference)
	if err != nil {
		t.Fatal(err)
	}
	if got := app.Stats().Registered; !got.Equal(now) {
		t.Errorf("Registered = %v, want %v", got, now)
	}

	now = now.Add(time.Second)
	for i := 0; i < 10; i++ {
		if _, err := app.Report(steadyStatus(100, 95, 5, 50*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	s := app.Stats()
	if s.Reports != 10 {
		t.Errorf("Reports = %d, want 10", s.Reports)
	}
	if s.PacketsSent != 1000 || s.PacketsAcked != 950 || s.PacketsLost != 50 {
		t.Errorf("packet counts %v/%v/%v, want 1000/950/50", s.PacketsSent, s.PacketsAcked, s.PacketsLost)
	}
	if math.Abs(s.LossRate-0.05) > 1e-12 {
		t.Errorf("LossRate = %v, want 0.05", s.LossRate)
	}
	if want := 950.0 / 0.4; math.Abs(s.Throughput-want) > 1e-6 {
		t.Errorf("Throughput = %v, want %v", s.Throughput, want)
	}
	if d := s.AvgRTT - 50*time.Millisecond; d < -time.Microsecond || d > time.Microsecond {
		t.Errorf("AvgRTT = %v, want 50ms", s.AvgRTT)
	}
	if s.MinRTT != 40*time.Millisecond {
		t.Errorf("MinRTT = %v, want 40ms", s.MinRTT)
	}
	if s.Duration != 400*time.Millisecond {
		t.Errorf("Duration = %v, want 400ms", s.Duration)
	}
	if !s.LastReport.Equal(now) {
		t.Errorf("LastReport = %v, want %v", s.LastReport, now)
	}
	if s.Rate != app.Rate() {
		t.Errorf("Stats.Rate = %v, Rate() = %v", s.Rate, app.Rate())
	}
	if s.MeanRate <= 0 {
		t.Errorf("MeanRate = %v", s.MeanRate)
	}
	// OnlineAdapt is disabled on a WithoutAdaptation library.
	if _, err := lib2.OnlineAdapt(BalancedPreference, 1); err == nil {
		t.Error("OnlineAdapt succeeded on WithoutAdaptation library")
	}
}

func TestSaveAndLoadModel(t *testing.T) {
	lib := sharedLibrary(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := lib.SaveModel(path); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}
	// The loaded model must produce identical rates for identical input.
	a1, err := lib.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer a1.Unregister()
	a2, err := loaded.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	st := steadyStatus(100, 95, 5, 50*time.Millisecond)
	var r1, r2 float64
	for i := 0; i < 10; i++ {
		if r1, err = a1.Report(st); err != nil {
			t.Fatal(err)
		}
		if r2, err = a2.Report(st); err != nil {
			t.Fatal(err)
		}
	}
	if math.Abs(r1-r2) > 1e-9 {
		t.Errorf("loaded model diverges: %v vs %v", r1, r2)
	}
}

func TestLoadModelMissingFile(t *testing.T) {
	if _, err := LoadModel("/nonexistent/model.json"); err == nil {
		t.Error("missing model accepted")
	}
}

func TestOnlineAdapt(t *testing.T) {
	lib := sharedLibrary(t)
	curve, err := lib.OnlineAdapt(Weights{0.2, 0.7, 0.1}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(curve) != 3 {
		t.Fatalf("curve length %d", len(curve))
	}
	for _, r := range curve {
		if r < 0 || r > 1 || math.IsNaN(r) {
			t.Errorf("reward %v out of range", r)
		}
	}
	if _, err := lib.OnlineAdapt(Weights{0, 1, 0}, 1); err == nil {
		t.Error("invalid weights accepted")
	}
	if _, err := lib.OnlineAdapt(BalancedPreference, 0); err == nil {
		t.Error("zero iters accepted")
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Error("New(nil) accepted")
	}
	lib := sharedLibrary(t)
	if _, err := New(&Model{m: lib.model}, WithClock(nil)); err == nil {
		t.Error("WithClock(nil) accepted")
	}
	if _, err := New(&Model{m: lib.model}, WithInitialRTT(-time.Second)); err == nil {
		t.Error("negative WithInitialRTT accepted")
	}
}

// TestQuickTrainingGoldenModel pins the offline trainer's output across
// changes that may move speed but not numbers: the file `mocc-train -scale
// quick -seed 3` writes (Workers = 4, so four rollouts collected in
// lockstep through the batched forward, the data-parallel update pool and,
// where the CPU has them, the AVX kernels under it) hashes to what it did
// when training's batched forward became serving's row order — every
// (row, output) summed from zero in index order with the bias last, so each
// row of an update's batch has the bits of the rollout's n = 1 forward —
// with or without AVX.
func TestQuickTrainingGoldenModel(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("golden model was trained with the amd64 kernels, running on %s", runtime.GOARCH)
	}
	const golden = "5b3ad0e6353e80cfc8f9c0149681b12dd2350da4e6d6c8443cc94f0dc4745fa8"
	opts := QuickTraining()
	opts.Seed = 3
	model, err := TrainModel(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.json")
	if err := model.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	if got := hex.EncodeToString(sum[:]); got != golden {
		t.Fatalf("quick seed-3 model hashes to %s, want %s", got, golden)
	}
}
