package serve

import (
	"math"
	"strings"
	"sync/atomic"
	"testing"

	"mocc/internal/core"
	"mocc/internal/objective"
	"mocc/internal/obs"
)

// TestInlineSubmit pins the inline engine's decision path: Act and Submit
// answer on the calling goroutine with the single-sample action, done runs
// once before Submit returns with more = false, a clean decision writes no
// engine counter, and every decision after Close is answered NaN.
func TestInlineSubmit(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 13)
	e := NewInline(m, Config{Shards: 4})
	w := objective.UniformObjectives(1, 5)[0]
	cl := e.NewClient(1, w)
	inf := m.NewInference()

	for r := 0; r < 8; r++ {
		x := testObs(m, 1, r)
		want := inf.ActFor(w, x)
		if got := cl.Act(x); got != want {
			t.Fatalf("round %d: inline Act %v, single-sample %v", r, got, want)
		}
		calls := 0
		cl.Submit(x, func(act float64, more bool) {
			calls++
			if act != want || more {
				t.Errorf("round %d: done(%v, %v), want (%v, false)", r, act, more, want)
			}
		})
		if calls != 1 {
			t.Fatalf("round %d: done ran %d times before Submit returned, want 1", r, calls)
		}
	}
	if st := e.Stats(); st != (Stats{}) {
		t.Fatalf("clean inline decisions wrote engine counters: %+v", st)
	}

	e.Close()
	e.Close() // idempotent
	if got := cl.Act(testObs(m, 1, 0)); !math.IsNaN(got) {
		t.Fatalf("Act after Close = %v, want NaN", got)
	}
	var after float64
	cl.Submit(testObs(m, 1, 0), func(act float64, _ bool) { after = act })
	if !math.IsNaN(after) {
		t.Fatalf("Submit after Close answered %v, want NaN", after)
	}
}

// TestInlinePanicRecovery pins the inline guard: a panic injected through
// batchHook answers NaN, counts in Panics and emits EvShardPanic, and the
// client's next Submit is served on a fresh view.
func TestInlinePanicRecovery(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 17)
	events := obs.NewEventLog(8)
	e := NewInline(m, Config{Events: events})
	defer e.Close()
	var poison atomic.Bool
	poison.Store(true)
	e.batchHook = func(n int) {
		if n != 1 {
			t.Errorf("inline batchHook n = %d, want 1", n)
		}
		if poison.CompareAndSwap(true, false) {
			panic("injected inference fault")
		}
	}

	w := objective.UniformObjectives(1, 6)[0]
	x := testObs(m, 4, 0)
	cl := e.NewClient(1, w)
	var got float64
	cl.Submit(x, func(act float64, _ bool) { got = act })
	if !math.IsNaN(got) {
		t.Fatalf("poisoned inline decision answered %v, want NaN", got)
	}
	if cl.inf != nil {
		t.Fatal("the view survived the panic")
	}
	cl.Submit(x, func(act float64, _ bool) { got = act })
	if want := m.NewInference().ActFor(w, x); got != want {
		t.Fatalf("post-recovery decision %v, want %v", got, want)
	}
	if st := e.Stats(); st.Panics != 1 || st.Reports != 0 {
		t.Fatalf("stats after recovered inline panic: %+v", st)
	}
	tail := events.Tail(8)
	if len(tail) != 1 || tail[0].Type != obs.EvShardPanic || !strings.Contains(tail[0].Msg, "injected inference fault") {
		t.Fatalf("events after recovered inline panic: %+v", tail)
	}
}

// TestInlineLiveBootAndRollback pins the inline boot rule and its rollback
// target: epoch 0 is the live model, so an in-place update reaches the next
// decision, and Publish retains a frozen clone of it — a later in-place
// write (the library syncing its model to the published one) must not leak
// into the generation Rollback re-serves.
func TestInlineLiveBootAndRollback(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 19)
	e := NewInline(m, Config{})
	defer e.Close()
	w := objective.UniformObjectives(1, 8)[0]
	x := testObs(m, 5, 0)
	cl := e.NewClient(1, w)

	before := cl.Act(x)
	m.CopyFrom(perturbed(m, 1e-3)) // an OnlineAdapt step, as far as serving can tell
	live := cl.Act(x)
	if live == before {
		t.Fatal("an in-place update of the live boot model did not reach the next decision")
	}

	foreign := perturbed(m, 0.05)
	if seq, err := e.Publish(foreign); err != nil || seq != 1 {
		t.Fatalf("Publish = (%d, %v), want (1, nil)", seq, err)
	}
	m.CopyFrom(foreign)
	if got, want := cl.Act(x), m.NewInference().ActFor(w, x); got != want || cl.LastEpoch() != 1 {
		t.Fatalf("after Publish: %v at epoch %d, want %v at epoch 1", got, cl.LastEpoch(), want)
	}
	seq, rb, err := e.Rollback()
	if err != nil || seq != 2 {
		t.Fatalf("Rollback = (%d, %v), want (2, nil)", seq, err)
	}
	if rb == m {
		t.Fatal("Rollback re-served the live model instead of its frozen clone")
	}
	if got := cl.Act(x); got != live || cl.LastEpoch() != 2 {
		t.Fatalf("after Rollback: %v at epoch %d, want the pre-publish %v at epoch 2", got, cl.LastEpoch(), live)
	}
	if st := e.Stats(); st.Swaps != 2 || st.Rollbacks != 1 {
		t.Fatalf("swap stats after publish and rollback: %+v", st)
	}
}
