package mocc

import (
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"mocc/internal/obs"
)

// obsLibrary builds a serving library with a fresh Metrics sink attached.
func obsLibrary(t *testing.T, extra ...Option) (*Library, *Metrics) {
	t.Helper()
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	met := NewMetrics()
	opts := append([]Option{
		WithServing(ServingOptions{Shards: 2}),
		WithObservability(ObservabilityOptions{Metrics: met}),
		WithoutAdaptation(),
	}, extra...)
	lib, err := New(model, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return lib, met
}

// scrape renders the library's /metrics endpoint to a string.
func scrape(t *testing.T, lib *Library) string {
	t.Helper()
	rec := httptest.NewRecorder()
	lib.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("/metrics status %d", rec.Code)
	}
	return rec.Body.String()
}

// TestObsChaosFlightRecorder is the post-mortem chaos pin: publish a model
// that passes the finite gate but decides ±Inf, let the canary condemn it,
// and then verify the observability layer explains the whole episode —
// the event log carries the publish → guard-trip → canary-rollback chain
// in order, and every handle's flight recorder still holds the poisoned
// decisions (non-finite verdict, condemned epoch) after the rollback.
func TestObsChaosFlightRecorder(t *testing.T) {
	rolled := make(chan RollbackEvent, 4)
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	met := NewMetrics()
	lib, err := New(model,
		WithServing(ServingOptions{
			Shards: 2,
			Canary: &CanaryConfig{
				Window:       10 * time.Second,
				Interval:     5 * time.Millisecond,
				MaxFaultRate: 0.1,
				MinReports:   20,
				OnRollback:   func(ev RollbackEvent) { rolled <- ev },
			},
		}),
		// The report loop below only stops when OnRollback has run, and the
		// monitor goroutine can be descheduled between rolling back and
		// calling it while every app keeps deciding cleanly: at ≈ 5 µs a
		// decision a 256-deep ring forgot the poisoned ones after ≈ 5 ms of
		// that. 4096 covers a stall of ≈ 80 ms.
		WithObservability(ObservabilityOptions{Metrics: met, FlightDepth: 4096}),
		WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()

	apps := make([]*App, 4)
	for i := range apps {
		if apps[i], err = lib.Register(Weights{0.4, 0.3, 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	for round := 0; round < 5; round++ {
		reportAll(t, apps, round)
	}

	if _, err := lib.Publish(poisonedClone(model)); err != nil {
		t.Fatalf("poisoned model must pass the finite gate, got: %v", err)
	}
	deadline := time.After(30 * time.Second)
	round := 5
loop:
	for {
		select {
		case <-rolled:
			break loop
		case <-deadline:
			t.Fatalf("no rollback within deadline; stats=%+v", lib.ServingStats())
		default:
		}
		reportAll(t, apps, round)
		round++
	}
	// Clean recovery rounds on the restored generation: the poisoned
	// decisions must survive them in the flight recorders.
	for r := 0; r < 20; r++ {
		reportAll(t, apps, round)
		round++
	}

	// The event log tells the story in order: publish, trip, rollback.
	const unseen = ^uint64(0)
	publishSeq, tripSeq, rollbackSeq := unseen, unseen, unseen
	var rollbackMsg string
	for _, ev := range met.EventLog().Tail(1 << 20) {
		switch {
		case ev.Type == obs.EvEpochPublish && ev.Epoch == 1:
			publishSeq = ev.Seq
		case ev.Type == obs.EvSafeModeTrip && tripSeq == unseen:
			tripSeq = ev.Seq
		case ev.Type == obs.EvCanaryRollback:
			rollbackSeq, rollbackMsg = ev.Seq, ev.Msg
		}
	}
	if publishSeq == unseen || tripSeq == unseen || rollbackSeq == unseen {
		t.Fatalf("incomplete event chain: publish=%d trip=%d rollback=%d",
			publishSeq, tripSeq, rollbackSeq)
	}
	if !(publishSeq < tripSeq && tripSeq < rollbackSeq) {
		t.Fatalf("event chain out of order: publish=%d trip=%d rollback=%d",
			publishSeq, tripSeq, rollbackSeq)
	}
	if !strings.Contains(rollbackMsg, "condemned") {
		t.Errorf("rollback event does not explain itself: %q", rollbackMsg)
	}

	// Every handle's flight recorder retains the poisoned decisions.
	for i, a := range apps {
		dump := a.FlightRecord()
		poisoned := 0
		for _, d := range dump {
			if d.Verdict == obs.VerdictNonFinite {
				poisoned++
				if d.Epoch != 1 {
					t.Errorf("app %d: poisoned decision at epoch %d, want 1", i, d.Epoch)
				}
			}
		}
		if poisoned == 0 {
			t.Errorf("app %d: no poisoned decisions retained across the rollback (%d in dump)",
				i, len(dump))
		}
		if last := dump[len(dump)-1]; last.Verdict != obs.VerdictOK {
			t.Errorf("app %d: last decision verdict %s, want ok",
				i, obs.VerdictName(last.Verdict))
		}
	}

	// And the fleet counters agree.
	page := scrape(t, lib)
	for _, want := range []string{
		"mocc_canary_rollbacks_total 1",
		"mocc_epoch_publishes_total 1",
	} {
		if !strings.Contains(page, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
	if !strings.Contains(page, "mocc_safemode_trips_total 4") {
		t.Errorf("expected all 4 handles tripped in /metrics")
	}
}

// TestObsConcurrentScrape races the scrape surfaces (/metrics, /vars,
// FleetStats) against heavy handle churn: 10k short-lived handles
// registering, reporting and unregistering while pollers read
// continuously. Run under -race via make test-race.
func TestObsConcurrentScrape(t *testing.T) {
	lib, met := obsLibrary(t)
	defer lib.Close()
	handler := lib.Handler()

	const (
		workers        = 16
		handlesPerWork = 625 // 16*625 = 10k handles over the run
	)
	done := make(chan struct{})
	var scrapeWG sync.WaitGroup
	for p := 0; p < 3; p++ {
		scrapeWG.Add(1)
		go func(mode int) {
			defer scrapeWG.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				switch mode {
				case 0:
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
				case 1:
					rec := httptest.NewRecorder()
					handler.ServeHTTP(rec, httptest.NewRequest("GET", "/vars", nil))
				case 2:
					_ = lib.FleetStats()
				}
			}
		}(p)
	}

	var churnWG sync.WaitGroup
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for h := 0; h < handlesPerWork; h++ {
				app, err := lib.Register(Weights{0.4, 0.3, 0.3})
				if err != nil {
					errs <- err
					return
				}
				if _, err := app.Report(servingStatus(w, h)); err != nil {
					errs <- err
					return
				}
				if err := app.Unregister(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	churnWG.Wait()
	close(done)
	scrapeWG.Wait()
	select {
	case err := <-errs:
		t.Fatal(err)
	default:
	}
	if page := scrape(t, lib); !strings.Contains(page, "mocc_serve_reports_total 10000") {
		t.Errorf("reports counter lost churn updates")
	}
	_ = met
}

// TestObsZeroAllocReport pins the hot-path cost of full observability: a
// clean App.Report with metrics, events and the flight recorder all
// enabled must not allocate.
func TestObsZeroAllocReport(t *testing.T) {
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	met := NewMetrics()
	lib, err := New(model,
		WithObservability(ObservabilityOptions{Metrics: met}),
		WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	app, err := lib.Register(Weights{0.4, 0.3, 0.3})
	if err != nil {
		t.Fatal(err)
	}
	st := servingStatus(1, 1)
	if _, err := app.Report(st); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(200, func() {
		if _, err := app.Report(st); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("Report with observability: %.1f allocs/op, want 0", allocs)
	}
	if n := app.flight.Len(); n == 0 {
		t.Error("flight recorder recorded nothing")
	}
}

// TestLibraryHealthz pins the liveness probe: 200 with canary/overload
// detail while serving, 503 once the library closes, and 404 everywhere
// without WithObservability.
func TestLibraryHealthz(t *testing.T) {
	lib, _ := obsLibrary(t)
	get := func(h int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		lib.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
		if rec.Code != h {
			t.Fatalf("/healthz status %d, want %d (%s)", rec.Code, h, rec.Body)
		}
		return rec
	}
	if body := get(200).Body.String(); !strings.Contains(body, `"epoch"`) {
		t.Errorf("healthz detail missing epoch: %s", body)
	}
	lib.Close()
	if body := get(503).Body.String(); !strings.Contains(body, "closed") {
		t.Errorf("healthz after close should explain: %s", body)
	}

	plain, err := New(perturbedClone(sharedLibrary(t).Model(), 0), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	rec := httptest.NewRecorder()
	plain.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 404 {
		t.Errorf("handler without observability: status %d, want 404", rec.Code)
	}
}
