package mocc

import (
	"math"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocc/internal/core"
)

// servingStatus varies the reported interval deterministically per (app,
// round) so bit-identity comparisons exercise a spread of observations.
func servingStatus(app, round int) Status {
	sent := 40.0 + float64((app*7+round*3)%20)
	lost := float64((app + round) % 3)
	return steadyStatus(sent, sent-lost, lost, time.Duration(40+(app*5+round)%30)*time.Millisecond)
}

// perturbedClone deep-copies the model and shifts every actor parameter, so
// published generations are distinguishable bit-wise.
func perturbedClone(m *Model, delta float64) *Model {
	m.m.RLockParams()
	c := m.m.Clone()
	m.m.RUnlockParams()
	for _, p := range c.ActorParams() {
		for i := range p.Value {
			p.Value[i] += delta
		}
	}
	return &Model{m: c}
}

// TestServingBitIdentical is the determinism pin of the two engines at the
// public surface: a sharded serving library (concurrent handles, coalesced
// batched inference) must publish bit-identical rate sequences to an inline
// library driving the same model with private single-sample views.
func TestServingBitIdentical(t *testing.T) {
	model := sharedLibrary(t).Model()
	servingLib, err := New(model, WithServing(ServingOptions{Shards: 4, MaxBatch: 16}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer servingLib.Close()
	baseLib, err := New(model, WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}

	const apps, rounds = 24, 40
	prefs := []Weights{ThroughputPreference, LatencyPreference, RTCPreference, BalancedPreference}

	// Serving library: all apps report concurrently; coalescing is free to
	// mix their requests into shared batches.
	servingRates := make([][]float64, apps)
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		app, err := servingLib.Register(prefs[a%len(prefs)])
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(a int, app *App) {
			defer wg.Done()
			rates := make([]float64, rounds)
			for r := 0; r < rounds; r++ {
				rate, err := app.Report(servingStatus(a, r))
				if err != nil {
					t.Errorf("app %d round %d: %v", a, r, err)
					return
				}
				rates[r] = rate
			}
			servingRates[a] = rates
		}(a, app)
	}
	wg.Wait()

	// Baseline library: same registration order (same handle IDs, same
	// controller seeds), driven sequentially.
	baseApps := make([]*App, apps)
	for a := 0; a < apps; a++ {
		app, err := baseLib.Register(prefs[a%len(prefs)])
		if err != nil {
			t.Fatal(err)
		}
		baseApps[a] = app
	}
	for a := 0; a < apps; a++ {
		for r := 0; r < rounds; r++ {
			want, err := baseApps[a].Report(servingStatus(a, r))
			if err != nil {
				t.Fatal(err)
			}
			if servingRates[a][r] != want {
				t.Fatalf("app %d round %d: sharded rate %v, inline rate %v", a, r, servingRates[a][r], want)
			}
		}
	}

	st := servingLib.ServingStats()
	if st.Shards != 4 || st.Reports != apps*rounds || st.Batches == 0 {
		t.Fatalf("implausible serving stats: %+v", st)
	}
	if st := baseLib.ServingStats(); st.Shards != 0 || st.Reports != 0 {
		t.Fatalf("implausible inline stats: %+v", st)
	}
}

// TestReportAsyncMatchesReport pins the asynchronous decision path: apps
// chaining ReportAsync from inside done (on the shard goroutines) publish
// the rates, guard verdicts and telemetry that App.Report gives on a plain
// library, with a fault hook poisoning about one action in seven so the
// guard trips and recovers along the way. Refused statuses and unregistered
// handles are answered on the calling goroutine.
func TestReportAsyncMatchesReport(t *testing.T) {
	model := sharedLibrary(t).Model()
	poison := func(act float64) float64 {
		if math.Float64bits(act)%7 == 0 {
			return math.NaN()
		}
		return act
	}
	opts := []Option{WithoutAdaptation(), WithInferenceFault(poison),
		WithSafeMode(SafeModeConfig{TripAfter: 2, RecoverAfter: 3})}
	servingLib, err := New(model, append(opts, WithServing(ServingOptions{Shards: 2, MaxBatch: 8}))...)
	if err != nil {
		t.Fatal(err)
	}
	defer servingLib.Close()
	baseLib, err := New(model, opts...)
	if err != nil {
		t.Fatal(err)
	}

	const apps, rounds = 16, 60
	prefs := []Weights{ThroughputPreference, LatencyPreference, RTCPreference, BalancedPreference}
	got := make([][]float64, apps)
	servingApps := make([]*App, apps)
	var wg sync.WaitGroup
	for a := range servingApps {
		app, err := servingLib.Register(prefs[a%len(prefs)])
		if err != nil {
			t.Fatal(err)
		}
		servingApps[a] = app
		var done func(float64, error, bool)
		done = func(rate float64, err error, _ bool) {
			if err != nil {
				t.Errorf("app %d: %v", a, err)
				wg.Done()
				return
			}
			if got[a] = append(got[a], rate); len(got[a]) < rounds {
				app.ReportAsync(servingStatus(a, len(got[a])), done)
			} else {
				wg.Done()
			}
		}
		wg.Add(1)
		app.ReportAsync(servingStatus(a, 0), done)
	}
	wg.Wait()

	faults := int64(0)
	for a, app := range servingApps {
		base, err := baseLib.Register(prefs[a%len(prefs)])
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < rounds; r++ {
			want, err := base.Report(servingStatus(a, r))
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got[a][r]) != math.Float64bits(want) {
				t.Fatalf("app %d round %d: ReportAsync rate %v, Report rate %v", a, r, got[a][r], want)
			}
		}
		gs, ws := app.Stats(), base.Stats()
		gs.Registered, gs.LastReport, gs.LastFaultAt = ws.Registered, ws.LastReport, ws.LastFaultAt // wall-clock stamps
		if gs != ws {
			t.Fatalf("app %d stats differ:\n async  %+v\n report %+v", a, gs, ws)
		}
		faults += gs.Faults
	}
	if faults == 0 {
		t.Fatal("the fault hook never fired; the guard path went untested")
	}

	app := servingApps[0]
	bad := servingStatus(0, 0)
	bad.PacketsLost = bad.PacketsSent + 1
	var inline error
	app.ReportAsync(bad, func(_ float64, err error, _ bool) { inline = err })
	if inline == nil {
		t.Fatal("ReportAsync accepted an inconsistent status")
	}
	if err := app.Unregister(); err != nil {
		t.Fatal(err)
	}
	inline = nil
	app.ReportAsync(servingStatus(0, 0), func(_ float64, err error, _ bool) { inline = err })
	if inline == nil {
		t.Fatal("ReportAsync on an unregistered handle did not fail before returning")
	}
}

// TestServingHotSwapLive publishes new model generations while registered
// apps keep reporting: every Report must keep succeeding with a finite
// rate, the epoch must advance, and publishing a foreign model must sync
// the library model so SaveModel/OnlineAdapt see the served generation.
func TestServingHotSwapLive(t *testing.T) {
	model := sharedLibrary(t).Model()
	lib, err := New(model, WithServing(ServingOptions{Shards: 2, MaxBatch: 8}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()

	const apps = 6
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < apps; a++ {
		app, err := lib.Register(RTCPreference)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(a int, app *App) {
			defer wg.Done()
			for r := 0; ; r++ {
				select {
				case <-stop:
					return
				default:
				}
				rate, err := app.Report(servingStatus(a, r))
				if err != nil {
					t.Errorf("app %d: %v", a, err)
					return
				}
				if math.IsNaN(rate) || rate <= 0 {
					t.Errorf("app %d: rate %v during hot swap", a, rate)
					return
				}
			}
		}(a, app)
	}

	const publishes = 5
	var last *Model
	for g := 1; g <= publishes; g++ {
		last = perturbedClone(model, 1e-4*float64(g))
		seq, err := lib.Publish(last)
		if err != nil {
			t.Fatalf("publish %d: %v", g, err)
		}
		if seq != uint64(g) {
			t.Fatalf("publish %d: epoch %d", g, seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	if lib.Epoch() != publishes {
		t.Fatalf("Epoch = %d, want %d", lib.Epoch(), publishes)
	}
	// Foreign publish synced the library model: spot-check a parameter.
	want := last.m.ActorParams()[0].Value[0]
	if got := lib.model.ActorParams()[0].Value[0]; got != want {
		t.Fatalf("library model not synced to published generation: %v vs %v", got, want)
	}
	if st := lib.ServingStats(); st.Epoch != publishes || st.Swaps == 0 {
		t.Fatalf("swap stats not recorded: %+v", st)
	}
}

// TestPublishValidation covers Publish's admission: it succeeds without
// serving, and refuses nil and a NaN-poisoned model.
func TestPublishValidation(t *testing.T) {
	model := sharedLibrary(t).Model()
	plain, err := New(perturbedClone(model, 0), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if seq, err := plain.Publish(plain.Model()); err != nil || seq != 1 {
		t.Fatalf("Publish without serving = (%d, %v), want (1, nil)", seq, err)
	}

	slib, err := New(model, WithServing(ServingOptions{Shards: 1}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer slib.Close()
	if _, err := slib.Publish(nil); err == nil {
		t.Fatal("Publish accepted a nil model")
	}
	bad := perturbedClone(model, 0)
	bad.m.ActorParams()[0].Value[0] = math.NaN()
	if _, err := slib.Publish(bad); err == nil {
		t.Fatal("Publish accepted a NaN-poisoned model")
	}
	if slib.Epoch() != 0 {
		t.Fatalf("rejected publish advanced the epoch to %d", slib.Epoch())
	}
}

// TestPublishBootRules pins both boot rules and rollback at the public
// surface, on an inline library and on a sharded one. Before any Publish,
// OnlineAdapt changes the next Report inline (the engine decides on the
// live model) and does not when sharded (the shards boot from a frozen
// clone) until the adapted model is published. Publish of a foreign model
// then Rollback restores the pre-publish rate bits. Publish of a model with
// another HistoryLen is refused, leaving Epoch and the library model
// untouched.
func TestPublishBootRules(t *testing.T) {
	for _, tc := range []struct {
		name          string
		opts          []Option
		adaptIsServed bool
	}{
		{"inline", nil, true},
		{"sharded", []Option{WithServing(ServingOptions{Shards: 2})}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			model := perturbedClone(sharedLibrary(t).Model(), 0)
			lib, err := New(model, append(tc.opts, WithAdaptation(AdaptationOptions{
				RolloutSteps: 64, EpisodeLen: 32, Replay: true, Seed: 1}))...)
			if err != nil {
				t.Fatal(err)
			}
			defer lib.Close()
			// firstRate is a fresh handle's first decided rate: every
			// handle starts from the same controller state, so it
			// changes only with the generation serving it.
			st := servingStatus(3, 1)
			firstRate := func() uint64 {
				t.Helper()
				app, err := lib.Register(RTCPreference)
				if err != nil {
					t.Fatal(err)
				}
				defer app.Unregister()
				rate, err := app.Report(st)
				if err != nil {
					t.Fatal(err)
				}
				return math.Float64bits(rate)
			}

			boot := firstRate()
			if _, err := lib.OnlineAdapt(LatencyPreference, 1); err != nil {
				t.Fatal(err)
			}
			if served := firstRate() != boot; served != tc.adaptIsServed {
				t.Fatalf("OnlineAdapt reached the next Report: %v, want %v", served, tc.adaptIsServed)
			}
			if !tc.adaptIsServed {
				if _, err := lib.Publish(lib.Model()); err != nil {
					t.Fatal(err)
				}
				if firstRate() == boot {
					t.Fatal("publishing the adapted model did not reach Report")
				}
			}

			want, epoch := firstRate(), lib.Epoch()
			if _, err := lib.Publish(perturbedClone(model, 0.01)); err != nil {
				t.Fatal(err)
			}
			if firstRate() == want {
				t.Fatal("the foreign model decided the pre-publish rate")
			}
			if _, err := lib.Rollback(); err != nil {
				t.Fatal(err)
			}
			if got := firstRate(); got != want {
				t.Fatalf("rate after Rollback %v, want the pre-publish %v",
					math.Float64frombits(got), math.Float64frombits(want))
			}
			if lib.Epoch() != epoch+2 {
				t.Fatalf("Epoch after Publish and Rollback = %d, want %d", lib.Epoch(), epoch+2)
			}

			before := lib.Model().m.Snapshot()
			epoch = lib.Epoch()
			if _, err := lib.Publish(&Model{m: core.NewModel(core.HistoryLen+1, 1)}); err == nil {
				t.Fatal("Publish accepted a model with another HistoryLen")
			}
			if lib.Epoch() != epoch {
				t.Fatalf("refused Publish moved the epoch %d -> %d", epoch, lib.Epoch())
			}
			if after := lib.Model().m.Snapshot(); !reflect.DeepEqual(after, before) {
				t.Fatal("refused Publish changed the library model")
			}
		})
	}
}

// TestInlineReportAsyncAllocFree pins the inline asynchronous path: with a
// prebuilt done, App.ReportAsync decides on the calling goroutine without
// allocating.
func TestInlineReportAsyncAllocFree(t *testing.T) {
	lib, err := New(perturbedClone(sharedLibrary(t).Model(), 0), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	app, err := lib.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	st := servingStatus(2, 2)
	var calls int
	done := func(rate float64, err error, more bool) {
		if err != nil || more || !(rate > 0) {
			t.Errorf("ReportAsync done(%v, %v, %v)", rate, err, more)
		}
		calls++
	}
	app.ReportAsync(st, done)
	if allocs := testing.AllocsPerRun(200, func() { app.ReportAsync(st, done) }); allocs != 0 {
		t.Errorf("inline ReportAsync: %.1f allocs/op, want 0", allocs)
	}
	if calls != 202 {
		t.Fatalf("done ran %d times for 202 ReportAsync calls", calls)
	}
}

// TestServingEvictionLogic drives the idle-eviction scan directly under a
// fake clock: handles idle past the TTL go, recently active ones stay.
func TestServingEvictionLogic(t *testing.T) {
	var nanos atomic.Int64
	nanos.Store(time.Hour.Nanoseconds())
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }

	model := sharedLibrary(t).Model()
	// IdleTTL deliberately unset: the janitor goroutine stays out of the
	// way and the scan runs only when the test calls it.
	lib, err := New(model, WithServing(ServingOptions{Shards: 1}), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	lib.idleTTL = time.Hour

	active, err := lib.Register(ThroughputPreference)
	if err != nil {
		t.Fatal(err)
	}
	idle, err := lib.Register(LatencyPreference)
	if err != nil {
		t.Fatal(err)
	}

	nanos.Add((30 * time.Minute).Nanoseconds())
	if _, err := active.Report(steadyStatus(50, 50, 0, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if n := lib.evictIdle(); n != 0 {
		t.Fatalf("evicted %d handles before any TTL expired", n)
	}

	// 70 minutes after registration: idle (never reported) is past the
	// 1h TTL, active reported 40 minutes ago and survives.
	nanos.Add((40 * time.Minute).Nanoseconds())
	if n := lib.evictIdle(); n != 1 {
		t.Fatalf("evictIdle = %d, want 1", n)
	}
	if _, err := idle.Report(steadyStatus(50, 50, 0, 40*time.Millisecond)); err == nil {
		t.Fatal("evicted handle still accepts reports")
	}
	if _, err := active.Report(steadyStatus(50, 50, 0, 40*time.Millisecond)); err != nil {
		t.Fatalf("active handle was evicted: %v", err)
	}
	if st := lib.ServingStats(); st.Evicted != 1 {
		t.Fatalf("ServingStats.Evicted = %d, want 1", st.Evicted)
	}
	if lib.Apps() != 1 {
		t.Fatalf("Apps = %d, want 1", lib.Apps())
	}
}

// TestServingJanitor proves the background janitor actually runs: with a
// real clock and a short TTL, an abandoned handle disappears on its own.
func TestServingJanitor(t *testing.T) {
	model := sharedLibrary(t).Model()
	lib, err := New(model, WithServing(ServingOptions{Shards: 1, IdleTTL: 50 * time.Millisecond}))
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	if _, err := lib.Register(BalancedPreference); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for lib.Apps() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("janitor never evicted the idle handle (Apps = %d)", lib.Apps())
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st := lib.ServingStats(); st.Evicted != 1 {
		t.Fatalf("ServingStats.Evicted = %d, want 1", st.Evicted)
	}
}

// TestFleetStats checks the fleet aggregation arithmetic over two handles
// with known telemetry.
func TestFleetStats(t *testing.T) {
	model := sharedLibrary(t).Model()
	lib, err := New(model, WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	a, _ := lib.Register(ThroughputPreference)
	b, _ := lib.Register(LatencyPreference)
	for i := 0; i < 4; i++ {
		if _, err := a.Report(steadyStatus(50, 48, 2, 40*time.Millisecond)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Report(steadyStatus(100, 99, 1, 80*time.Millisecond)); err != nil {
		t.Fatal(err)
	}

	f := lib.FleetStats()
	if f.Apps != 2 || f.Reports != 5 {
		t.Fatalf("Apps/Reports = %d/%d, want 2/5", f.Apps, f.Reports)
	}
	if f.PacketsSent != 300 || f.PacketsAcked != 291 || f.PacketsLost != 9 {
		t.Fatalf("packet totals %v/%v/%v", f.PacketsSent, f.PacketsAcked, f.PacketsLost)
	}
	if want := 9.0 / 300; f.LossRate != want {
		t.Fatalf("LossRate = %v, want %v", f.LossRate, want)
	}
	if f.MinRTT != 40*time.Millisecond {
		t.Fatalf("MinRTT = %v", f.MinRTT)
	}
	if f.Duration != 5*40*time.Millisecond {
		t.Fatalf("Duration = %v", f.Duration)
	}
	// steadyStatus reports equal-length intervals, so the duration-weighted
	// fleet AvgRTT of four 40ms-RTT intervals and one 80ms-RTT interval is
	// their plain mean, 48ms.
	if want := 48 * time.Millisecond; f.AvgRTT != want {
		t.Fatalf("AvgRTT = %v, want %v", f.AvgRTT, want)
	}
	if f.Throughput <= 0 || f.MeanRate <= 0 {
		t.Fatalf("non-positive aggregates: %+v", f)
	}
}

// TestServingClose pins graceful shutdown: Close drains, is idempotent, and
// an outstanding handle degrades to the safe-mode fallback instead of
// failing — the learned path is gone but the app keeps getting finite rates.
func TestServingClose(t *testing.T) {
	model := sharedLibrary(t).Model()
	lib, err := New(model, WithServing(ServingOptions{Shards: 1}))
	if err != nil {
		t.Fatal(err)
	}
	app, err := lib.Register(RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Report(steadyStatus(50, 50, 0, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	lib.Close()
	lib.Close() // idempotent

	for i := 0; i < 4; i++ {
		rate, err := app.Report(steadyStatus(50, 50, 0, 40*time.Millisecond))
		if err != nil {
			t.Fatalf("report %d after Close: %v", i, err)
		}
		if math.IsNaN(rate) || rate <= 0 {
			t.Fatalf("report %d after Close: rate %v", i, rate)
		}
	}
	if st := app.Stats(); !st.FallbackActive || st.Faults == 0 {
		t.Fatalf("handle did not degrade to fallback after Close: %+v", st)
	}
}

// TestServingChurnRace is the ISSUE's fleet-scale race workout: churn
// Register/Report/Stats/Unregister across 10k handles through the sharded
// engine while epoch hot-swaps publish concurrently and fleet/serving stats
// are polled. Run under -race via make test-race.
func TestServingChurnRace(t *testing.T) {
	model := sharedLibrary(t).Model()
	lib, err := New(model, WithServing(ServingOptions{Shards: 4, MaxBatch: 32}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()

	handles := 10000
	if testing.Short() {
		handles = 1000
	}
	const workers = 16
	perWorker := handles / workers
	prefs := []Weights{ThroughputPreference, LatencyPreference, RTCPreference, BalancedPreference}

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for h := 0; h < perWorker; h++ {
				app, err := lib.Register(prefs[(w+h)%len(prefs)])
				if err != nil {
					t.Error(err)
					return
				}
				for r := 0; r < 3; r++ {
					rate, err := app.Report(servingStatus(w, h*3+r))
					if err != nil {
						t.Error(err)
						return
					}
					if math.IsNaN(rate) || rate <= 0 {
						t.Errorf("worker %d handle %d: rate %v", w, h, rate)
						return
					}
				}
				_ = app.Stats()
				if err := app.Unregister(); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() { // epoch hot-swap storm
		defer aux.Done()
		for g := 1; ; g++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := lib.Publish(perturbedClone(model, 1e-5*float64(g%7))); err != nil {
				t.Errorf("publish: %v", err)
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()
	aux.Add(1)
	go func() { // stats pollers race the churn
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = lib.FleetStats()
			_ = lib.ServingStats()
			time.Sleep(2 * time.Millisecond)
		}
	}()

	wg.Wait()
	close(stop)
	aux.Wait()

	st := lib.ServingStats()
	if st.Reports != uint64(workers*perWorker*3) {
		t.Fatalf("ServingStats.Reports = %d, want %d", st.Reports, workers*perWorker*3)
	}
	if st.Epoch == 0 {
		t.Fatal("no epoch ever published during the churn")
	}
	if lib.Apps() != 0 {
		t.Fatalf("Apps = %d after full churn", lib.Apps())
	}
}

// TestFleetStatsEvictionChurn hammers the fleet-telemetry surface while the
// idle janitor races handle registration: workers continuously register,
// report, and abandon handles, an evictor advances a fake clock past the TTL
// and scans, and pollers read FleetStats/ServingStats throughout. Gauges
// must never go negative, the eviction counter must be monotonic, and an
// evicted worker must always be able to lazily re-register. Run under
// -race, this also pins the locking of every surface involved.
func TestFleetStatsEvictionChurn(t *testing.T) {
	var nanos atomic.Int64
	nanos.Store(time.Hour.Nanoseconds())
	clock := func() time.Time { return time.Unix(0, nanos.Load()) }

	model := sharedLibrary(t).Model()
	// IdleTTL unset so the janitor goroutine stays out; the evictor below
	// runs the same scan deterministically under the fake clock.
	lib, err := New(model, WithServing(ServingOptions{Shards: 2}), WithClock(clock))
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	lib.idleTTL = time.Minute

	var (
		stop       = make(chan struct{})
		wg         sync.WaitGroup
		reRegister atomic.Int64 // lazy re-registrations after eviction
		failMu     sync.Mutex
		failure    string
	)
	fail := func(msg string) {
		failMu.Lock()
		if failure == "" {
			failure = msg
		}
		failMu.Unlock()
	}

	const workers = 4
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var app *App
			for round := 0; ; round++ {
				select {
				case <-stop:
					return
				default:
				}
				if app == nil {
					a, err := lib.Register(BalancedPreference)
					if err != nil {
						fail("register: " + err.Error())
						return
					}
					app = a
					if round > 0 {
						reRegister.Add(1)
					}
				}
				if _, err := app.Report(servingStatus(w, round)); err != nil {
					// Evicted underneath us mid-report: the contract is
					// lazy re-registration on the next pass.
					app = nil
				}
				if round%13 == 12 {
					app = nil // abandon; the evictor collects it
				}
			}
		}(w)
	}

	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			nanos.Add((2 * time.Minute).Nanoseconds())
			lib.evictIdle()
		}
	}()

	for p := 0; p < 2; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEvicted int64
			for {
				select {
				case <-stop:
					return
				default:
				}
				f := lib.FleetStats()
				if f.Apps < 0 || f.Reports < 0 || f.FallbackActive < 0 {
					fail("negative FleetStats gauge")
				}
				s := lib.ServingStats()
				if s.Queued < 0 || s.Evicted < 0 {
					fail("negative ServingStats gauge")
				}
				if s.Evicted < lastEvicted {
					fail("Evicted went backwards")
				}
				lastEvicted = s.Evicted
			}
		}()
	}

	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()
	if failure != "" {
		t.Fatal(failure)
	}
	if reRegister.Load() == 0 {
		t.Fatal("churn never exercised lazy re-registration")
	}
	if lib.ServingStats().Evicted == 0 {
		t.Fatal("churn never evicted a handle")
	}
	// The library must still be fully serviceable after the storm.
	app, err := lib.Register(BalancedPreference)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := app.Report(steadyStatus(50, 50, 0, 40*time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	if q := lib.ServingStats().Queued; q != 0 {
		t.Fatalf("Queued = %d at quiescence, want 0", q)
	}
}
