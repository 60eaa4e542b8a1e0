package mocc

import (
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"
)

// poisonedClone deep-copies the model and rigs the actor parameters so that
// every value is huge but finite: the clone sails through Publish's
// CheckFinite gate, yet the very first forward pass overflows to ±Inf (the
// actor trunk's output is linear), which is exactly the class of failure the
// epoch canary exists to catch.
func poisonedClone(m *Model) *Model {
	c := perturbedClone(m, 0)
	for _, p := range c.m.ActorParams() {
		for i := range p.Value {
			p.Value[i] = 1e308
		}
	}
	return c
}

// reportAll drives one synthetic monitor interval through every app.
func reportAll(t *testing.T, apps []*App, round int) {
	t.Helper()
	for i, a := range apps {
		if _, err := a.Report(servingStatus(i, round)); err != nil {
			t.Fatalf("app %d round %d: %v", i, round, err)
		}
	}
}

// TestCanarySampleWhileDecisionInFlight pins the lock order ReportAsync
// relies on: a completion on a serving shard may read the library (the
// daemon's eviction check does), so nothing may wait for a handle's
// decision while holding the library lock. Y's completion holds the only
// shard and X's decision queues behind it while a Register takes the
// library lock and a canary sample runs; the sample loads atomics only, so
// it waits on no handle. Releasing Y's completion, which reads the
// library, must let every one of them finish.
func TestCanarySampleWhileDecisionInFlight(t *testing.T) {
	hold := make(chan struct{})
	var held atomic.Bool
	gate := func(act float64) float64 {
		if held.CompareAndSwap(false, true) {
			<-hold
		}
		return act
	}
	lib, err := New(perturbedClone(sharedLibrary(t).Model(), 0),
		WithServing(ServingOptions{Shards: 1}), WithoutAdaptation(), WithInferenceFault(gate))
	if err != nil {
		t.Fatal(err)
	}
	y, err := lib.Register(BalancedPreference)
	if err != nil {
		t.Fatal(err)
	}
	x, err := lib.Register(BalancedPreference)
	if err != nil {
		t.Fatal(err)
	}
	finished := make(chan string, 4)
	y.ReportAsync(servingStatus(0, 0), func(float64, error, bool) {
		lib.App(y.ID())
		finished <- "Y's completion"
	})
	for !held.Load() {
		time.Sleep(time.Millisecond)
	}
	x.ReportAsync(servingStatus(1, 0), func(float64, error, bool) { finished <- "X's completion" })
	go func() {
		lib.canarySample()
		finished <- "canary sample"
	}()
	// The sleeps only order the blocking calls; a missed interleaving makes
	// the test pass vacuously, never fail.
	time.Sleep(10 * time.Millisecond)
	go func() {
		lib.Register(LatencyPreference)
		finished <- "Register"
	}()
	time.Sleep(10 * time.Millisecond)
	close(hold)
	for i := 0; i < cap(finished); i++ {
		select {
		case <-finished:
		case <-time.After(10 * time.Second):
			// No deferred Close: it would wait for the stuck decisions.
			t.Fatalf("deadlock: %d of %d calls finished", i, cap(finished))
		}
	}
	lib.Close()
}

// TestCanarySampleCountsUnregisteredFaults pins the canary's fault total
// against handle churn: two handles fault under a poisoned publish and are
// unregistered before the next sample, and their faults must still show in
// the delta, or a poisoned epoch could hide behind its victims leaving.
func TestCanarySampleCountsUnregisteredFaults(t *testing.T) {
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	lib, err := New(model, WithServing(ServingOptions{Shards: 1}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()
	apps := make([]*App, 2)
	for i := range apps {
		if apps[i], err = lib.Register(BalancedPreference); err != nil {
			t.Fatal(err)
		}
	}
	reportAll(t, apps, 0)
	base := lib.canarySample()
	if _, err := lib.Publish(poisonedClone(model)); err != nil {
		t.Fatal(err)
	}
	for round := 1; round <= 3; round++ {
		reportAll(t, apps, round)
	}
	var want int64
	for i, a := range apps {
		f := a.Stats().Faults
		if f == 0 {
			t.Fatalf("app %d never faulted under the poisoned epoch", i)
		}
		want += f
		if err := a.Unregister(); err != nil {
			t.Fatal(err)
		}
	}
	cur := lib.canarySample()
	if got := int64(cur.faults - base.faults); got != want {
		t.Fatalf("fault delta = %d after unregistering the faulting handles, want their %d faults", got, want)
	}
}

// TestCanaryAutoRollback is the poisoned-publish chaos pin: a model that
// passes the finite check but decides pathologically must be rolled back by
// the fleet health monitor within its observation window, with the fleet
// recovering to clean learned decisions on the restored generation.
func TestCanaryAutoRollback(t *testing.T) {
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	events := make(chan RollbackEvent, 4)
	lib, err := New(model, WithServing(ServingOptions{
		Shards: 2,
		Canary: &CanaryConfig{
			Window:       10 * time.Second, // judged well before expiry
			Interval:     5 * time.Millisecond,
			MaxFaultRate: 0.1,
			MinReports:   20,
			OnRollback:   func(ev RollbackEvent) { events <- ev },
		},
	}), WithoutAdaptation())
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
	// Healthy baseline on the boot generation.
	for round := 0; round < 5; round++ {
		reportAll(t, apps, round)
	}
	for i, a := range apps {
		if f := a.Stats().Faults; f != 0 {
			t.Fatalf("app %d: %d faults on the healthy model", i, f)
		}
	}

	bad := poisonedClone(model)
	ep, err := lib.Publish(bad)
	if err != nil {
		t.Fatalf("poisoned model must pass the finite gate, got: %v", err)
	}
	if ep != 1 {
		t.Fatalf("poisoned epoch = %d, want 1", ep)
	}

	// Keep the fleet reporting until the canary condemns the epoch.
	var ev RollbackEvent
	deadline := time.After(30 * time.Second)
	round := 5
loop:
	for {
		select {
		case ev = <-events:
			break loop
		case <-deadline:
			t.Fatalf("no rollback within deadline; epoch=%d stats=%+v",
				lib.Epoch(), lib.ServingStats())
		default:
		}
		reportAll(t, apps, round)
		round++
	}
	if ev.From != 1 || ev.To != 2 {
		t.Fatalf("rollback %d -> %d, want 1 -> 2", ev.From, ev.To)
	}
	if ev.Faults == 0 || ev.Reports < 20 {
		t.Fatalf("rollback event under-evidenced: %+v", ev)
	}
	if got := lib.Epoch(); got != 2 {
		t.Fatalf("epoch after rollback = %d, want 2", got)
	}
	if st := lib.ServingStats(); st.Rollbacks != 1 {
		t.Fatalf("Rollbacks = %d, want 1", st.Rollbacks)
	}

	// The fleet degraded to the AIMD fallback while poisoned; on the
	// restored generation the shadow decisions come back clean and every
	// app must recover to the learned path (RecoverAfter=5 by default).
	for r := 0; r < 20; r++ {
		reportAll(t, apps, round)
		round++
	}
	for i, a := range apps {
		st := a.Stats()
		if st.Faults == 0 {
			t.Fatalf("app %d never faulted under the poisoned epoch", i)
		}
		if st.FallbackActive {
			t.Fatalf("app %d still degraded after rollback: %+v", i, st)
		}
		if r := a.Rate(); math.IsNaN(r) || math.IsInf(r, 0) {
			t.Fatalf("app %d rate %v after recovery", i, r)
		}
	}
}

// TestCanaryPromotesCleanEpoch pins the no-false-positive side: a healthy
// publish must survive its observation window without being rolled back.
func TestCanaryPromotesCleanEpoch(t *testing.T) {
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	events := make(chan RollbackEvent, 4)
	lib, err := New(model, WithServing(ServingOptions{
		Shards: 2,
		Canary: &CanaryConfig{
			Window:       200 * time.Millisecond,
			Interval:     5 * time.Millisecond,
			MaxFaultRate: 0.05,
			MinReports:   10,
			OnRollback:   func(ev RollbackEvent) { events <- ev },
		},
	}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()

	apps := make([]*App, 3)
	for i := range apps {
		if apps[i], err = lib.Register(Weights{0.4, 0.3, 0.3}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := lib.Publish(perturbedClone(model, 1e-6)); err != nil {
		t.Fatal(err)
	}
	stop := time.After(500 * time.Millisecond) // window + slack
	round := 0
	for {
		select {
		case ev := <-events:
			t.Fatalf("clean epoch rolled back: %+v", ev)
		case <-stop:
			if st := lib.ServingStats(); st.Rollbacks != 0 || st.Epoch != 1 {
				t.Fatalf("epoch %d rollbacks %d, want epoch 1 with none",
					st.Epoch, st.Rollbacks)
			}
			return
		default:
		}
		reportAll(t, apps, round)
		round++
	}
}

// TestManualRollback pins Library.Rollback: the displaced generation is
// re-installed as a new epoch and the library model resyncs to the
// parameters actually being served.
func TestManualRollback(t *testing.T) {
	model := perturbedClone(sharedLibrary(t).Model(), 0)
	ref := model.m.ActorParams()[0].Value[0]

	lib, err := New(model, WithServing(ServingOptions{Shards: 2}), WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer lib.Close()

	if _, err := lib.Rollback(); err == nil {
		t.Fatal("Rollback before any Publish must fail")
	}
	if _, err := lib.Publish(perturbedClone(model, 0.5)); err != nil {
		t.Fatal(err)
	}
	if got := lib.Model().m.ActorParams()[0].Value[0]; got != ref+0.5 {
		t.Fatalf("library model not synced to publish: %v, want %v", got, ref+0.5)
	}
	seq, err := lib.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || lib.Epoch() != 2 {
		t.Fatalf("rollback epoch = %d (Epoch %d), want 2", seq, lib.Epoch())
	}
	if got := lib.Model().m.ActorParams()[0].Value[0]; got != ref {
		t.Fatalf("library model not synced to rollback: %v, want %v", got, ref)
	}
	// A second Rollback re-installs the displaced perturbed generation.
	if seq, err = lib.Rollback(); err != nil || seq != 3 {
		t.Fatalf("redo rollback = (%d, %v), want (3, nil)", seq, err)
	}
	if got := lib.Model().m.ActorParams()[0].Value[0]; got != ref+0.5 {
		t.Fatalf("redo did not restore the perturbed generation: %v", got)
	}

	plain, err := New(model, WithoutAdaptation())
	if err != nil {
		t.Fatal(err)
	}
	defer plain.Close()
	if _, err := plain.Rollback(); err == nil {
		t.Fatal("Rollback before any Publish must fail without serving too")
	}
}

// TestServingStateRoundTrip pins the crash-safe daemon snapshot: epoch and
// model survive a save/load cycle bit-exactly, and corrupted or truncated
// state files are rejected instead of resuming garbage.
func TestServingStateRoundTrip(t *testing.T) {
	model := perturbedClone(sharedLibrary(t).Model(), 0.25)
	path := filepath.Join(t.TempDir(), "serve.state")

	if err := SaveServingState(path, 7, model); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
		t.Fatal("temp file left behind after atomic rename")
	}
	epoch, restored, err := LoadServingState(path)
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 7 {
		t.Fatalf("epoch = %d, want 7", epoch)
	}
	want := model.m.ActorParams()
	got := restored.m.ActorParams()
	if len(want) != len(got) {
		t.Fatalf("param count %d != %d", len(got), len(want))
	}
	for i := range want {
		for j := range want[i].Value {
			if got[i].Value[j] != want[i].Value[j] {
				t.Fatalf("param %d[%d]: %v != %v", i, j, got[i].Value[j], want[i].Value[j])
			}
		}
	}

	// Truncated mid-write (no atomic rename): must be rejected.
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	torn := filepath.Join(t.TempDir(), "torn.state")
	if err := os.WriteFile(torn, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadServingState(torn); err == nil {
		t.Fatal("truncated state accepted")
	}

	// Wrong format marker: must be rejected.
	bad := filepath.Join(t.TempDir(), "bad.state")
	if err := os.WriteFile(bad, []byte(`{"format":"not-a-state","epoch":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := LoadServingState(bad); err == nil {
		t.Fatal("foreign format accepted")
	}
	if _, _, err := LoadServingState(filepath.Join(t.TempDir(), "missing")); err == nil {
		t.Fatal("missing file accepted")
	}
}
