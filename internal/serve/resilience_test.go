package serve

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocc/internal/core"
	"mocc/internal/objective"
)

// perturbed returns a clone of m with every actor parameter shifted by
// delta, so the two models provably decide differently.
func perturbed(m *core.Model, delta float64) *core.Model {
	c := m.Clone()
	for _, p := range c.ActorParams() {
		for i := range p.Value {
			p.Value[i] += delta
		}
	}
	return c
}

// TestEngineQueueBoundShed pins the overload door: with the consumer held
// inside a forward pass, submits beyond MaxQueue are answered NaN
// immediately instead of queueing without bound, and every request that did
// make it in is still served.
func TestEngineQueueBoundShed(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 5)
	e := New(m, Config{Shards: 1, MaxBatch: 1, MaxQueue: 3})
	release := make(chan struct{})
	e.batchHook = func(int) { <-release }
	defer e.Close()

	w := objective.UniformObjectives(1, 1)[0]
	obs := testObs(m, 0, 0)
	var wg sync.WaitGroup
	res := make([]float64, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res[i] = e.NewClient(uint64(i), w).Act(obs)
		}(i)
	}
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Queued < 3; {
		if time.Now().After(deadline) {
			t.Fatalf("queue never filled: %+v", e.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}

	start := time.Now()
	shed := e.NewClient(99, w).Act(obs)
	if !math.IsNaN(shed) {
		t.Fatalf("submit over MaxQueue returned %v, want NaN", shed)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("shed answer took %v; shedding must not block", waited)
	}
	close(release)
	wg.Wait()

	for i, r := range res {
		if math.IsNaN(r) {
			t.Fatalf("queued request %d was shed: %v", i, res)
		}
	}
	st := e.Stats()
	if st.ShedQueue != 1 || st.Reports != 3 || st.Queued != 0 {
		t.Fatalf("stats after queue-bound shed: %+v", st)
	}
}

// TestSubmitMoreFalseWhenShed pins Submit's batch boundary on answers that
// are not a served forward pass: a door shed (answered inline), deadline
// sheds and a poisoned batch pass more = false to every completion, even
// where two requests would otherwise have shared a pass.
func TestSubmitMoreFalseWhenShed(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 13)
	obs := testObs(m, 1, 0)
	cases := []struct {
		name  string
		cfg   Config
		later func(n int)   // batch hook after the held first pass
		stale time.Duration // wait before release, past cfg.Deadline
		shed  []int         // clients answered NaN with more false
	}{
		{"door", Config{Shards: 1, MaxQueue: 3}, nil, 0, []int{3}},
		{"deadline", Config{Shards: 1, Deadline: 20 * time.Millisecond}, nil, 40 * time.Millisecond, []int{1, 2}},
		{"poisoned", Config{Shards: 1}, func(int) { panic("injected inference fault") }, 0, []int{1, 2}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			e := New(m, tc.cfg)
			arrived, release := holdFirstPass(e, tc.later)
			defer e.Close()
			defer release()

			type answer struct{ nan, more bool }
			got := make([]answer, 4)
			var wg sync.WaitGroup
			submit := func(c int) {
				wg.Add(1)
				e.NewClient(uint64(c), objective.BalancePref).Submit(obs, func(act float64, more bool) {
					got[c] = answer{math.IsNaN(act), more}
					wg.Done()
				})
			}
			submit(0)
			awaitHeld(t, e, arrived, 1)
			submit(1)
			submit(2)
			awaitHeld(t, e, arrived, 3)
			if tc.cfg.MaxQueue > 0 {
				submit(3) // the queue is full: answered before Submit returns
				if got[3] != (answer{true, false}) {
					t.Fatalf("door shed answered %+v before Submit returned, want NaN and more false", got[3])
				}
			}
			time.Sleep(tc.stale)
			release()
			wg.Wait()
			for _, c := range tc.shed {
				if got[c] != (answer{true, false}) {
					t.Fatalf("client %d answered %+v, want NaN and more false", c, got[c])
				}
			}
		})
	}
}

// TestEngineDeadlineShed pins deadline shedding: a request that waited in
// the queue past Config.Deadline is answered NaN instead of served stale,
// while the request that made the deadline is served normally.
func TestEngineDeadlineShed(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 6)
	e := New(m, Config{Shards: 1, MaxBatch: 1, Deadline: 100 * time.Millisecond})
	arrived := make(chan struct{})
	release := make(chan struct{})
	var once sync.Once
	e.batchHook = func(int) {
		once.Do(func() {
			close(arrived)
			<-release
		})
	}
	defer e.Close()

	w := objective.UniformObjectives(1, 2)[0]
	obs := testObs(m, 1, 0)
	var aRes, bRes float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); aRes = e.NewClient(1, w).Act(obs) }()
	select {
	case <-arrived: // consumer is now stalled inside A's forward pass
	case <-time.After(5 * time.Second):
		t.Fatal("first batch never reached the forward pass")
	}
	wg.Add(1)
	go func() { defer wg.Done(); bRes = e.NewClient(2, w).Act(obs) }()
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Queued < 2; {
		if time.Now().After(deadline) {
			t.Fatalf("second request never queued: %+v", e.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	time.Sleep(150 * time.Millisecond) // B is now past the 100ms deadline
	close(release)
	wg.Wait()

	if math.IsNaN(aRes) {
		t.Fatal("in-deadline request was shed")
	}
	if !math.IsNaN(bRes) {
		t.Fatalf("request queued past the deadline returned %v, want NaN", bRes)
	}
	st := e.Stats()
	if st.ShedDeadline != 1 || st.Reports != 1 {
		t.Fatalf("stats after deadline shed: %+v", st)
	}
}

// TestEnginePanicRecovery pins the per-batch guard: a forward pass that
// panics answers its chunk NaN, and the shard keeps serving subsequent
// batches on a rebuilt inference view — no restart needed.
func TestEnginePanicRecovery(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 7)
	e := New(m, Config{Shards: 1})
	var poison atomic.Bool
	poison.Store(true)
	e.batchHook = func(int) {
		if poison.CompareAndSwap(true, false) {
			panic("injected inference fault")
		}
	}
	defer e.Close()

	w := objective.UniformObjectives(1, 3)[0]
	obs := testObs(m, 2, 0)
	cl := e.NewClient(1, w)
	if got := cl.Act(obs); !math.IsNaN(got) {
		t.Fatalf("poisoned batch returned %v, want NaN", got)
	}
	got := cl.Act(obs)
	if want := m.NewInference().ActFor(w, obs); got != want {
		t.Fatalf("post-recovery decision %v, want %v", got, want)
	}
	st := e.Stats()
	if st.Panics != 1 || st.Restarts != 0 || st.Reports != 1 {
		t.Fatalf("stats after recovered panic: %+v", st)
	}
}

// TestEngineWatchdogRestart pins the consumer watchdog: a panic escaping the
// per-batch guards (injected at the top of the consumer loop) answers the
// stranded queue NaN and restarts the consumer instead of wedging the shard.
func TestEngineWatchdogRestart(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 8)
	e := New(m, Config{Shards: 1})
	defer e.Close()

	w := objective.UniformObjectives(1, 4)[0]
	obs := testObs(m, 3, 0)
	cl := e.NewClient(1, w)

	e.crashNext.Store(true)
	if got := cl.Act(obs); !math.IsNaN(got) {
		t.Fatalf("request stranded by the crash returned %v, want NaN", got)
	}
	got := cl.Act(obs)
	if want := m.NewInference().ActFor(w, obs); got != want {
		t.Fatalf("post-restart decision %v, want %v", got, want)
	}
	st := e.Stats()
	if st.Restarts != 1 || st.Queued != 0 || st.Reports != 1 {
		t.Fatalf("stats after watchdog restart: %+v", st)
	}
}

// TestEngineRollback pins last-known-good retention: Rollback re-serves the
// generation displaced by the last Publish as a fresh epoch, and a second
// Rollback undoes the first.
func TestEngineRollback(t *testing.T) {
	m0 := core.NewModel(core.HistoryLen, 9)
	e := New(m0, Config{Shards: 1})
	defer e.Close()

	if _, _, err := e.Rollback(); err == nil {
		t.Fatal("Rollback before any Publish should fail")
	}

	m1 := perturbed(m0, 0.05)
	if _, err := e.Publish(m1); err != nil {
		t.Fatal(err)
	}

	w := objective.UniformObjectives(1, 5)[0]
	obs := testObs(m0, 4, 0)
	want0 := m0.NewInference().ActFor(w, obs)
	want1 := m1.NewInference().ActFor(w, obs)
	if want0 == want1 {
		t.Fatal("perturbation too small: models decide identically")
	}
	cl := e.NewClient(1, w)
	if got := cl.Act(obs); got != want1 {
		t.Fatalf("after publish: decision %v, want %v", got, want1)
	}

	seq, back, err := e.Rollback()
	if err != nil {
		t.Fatal(err)
	}
	if seq != 2 || back != m0 {
		t.Fatalf("Rollback -> (seq %d, model %p), want (2, %p)", seq, back, m0)
	}
	if got := cl.Act(obs); got != want0 {
		t.Fatalf("after rollback: decision %v, want %v (the prior generation)", got, want0)
	}

	seq, back, err = e.Rollback() // undo the undo
	if err != nil {
		t.Fatal(err)
	}
	if seq != 3 || back != m1 {
		t.Fatalf("second Rollback -> (seq %d, model %p), want (3, %p)", seq, back, m1)
	}
	if got := cl.Act(obs); got != want1 {
		t.Fatalf("after double rollback: decision %v, want %v", got, want1)
	}
	if st := e.Stats(); st.Rollbacks != 2 {
		t.Fatalf("Stats.Rollbacks = %d, want 2", st.Rollbacks)
	}
}

// TestEngineOverloadBounded drives 2x the queue bound of concurrent clients
// against one deliberately slowed shard and pins the overload contract:
// shed requests (and only shed requests) are answered NaN, everything else
// is served, and no request — served or shed — waits unbounded time.
func TestEngineOverloadBounded(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 10)
	e := New(m, Config{Shards: 1, MaxBatch: 8, MaxQueue: 16, Deadline: 5 * time.Millisecond})
	e.batchHook = func(int) { time.Sleep(200 * time.Microsecond) }
	defer e.Close()

	const clients, rounds = 32, 20
	prefs := objective.UniformObjectives(clients, 11)
	var nans, slow atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.NewClient(uint64(c), prefs[c])
			for r := 0; r < rounds; r++ {
				start := time.Now()
				got := cl.Act(testObs(m, c, r))
				if time.Since(start) > 2*time.Second {
					slow.Add(1)
				}
				if math.IsNaN(got) {
					nans.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	st := e.Stats()
	if slow.Load() != 0 {
		t.Fatalf("%d requests exceeded the 2s latency bound under overload (stats %+v)", slow.Load(), st)
	}
	if st.ShedQueue == 0 {
		t.Fatalf("2x-queue overload never shed at the door: %+v", st)
	}
	if got, want := uint64(nans.Load()), st.Shed(); got != want {
		t.Fatalf("NaN answers %d != shed counter %d (stats %+v)", got, want, st)
	}
	if got, want := st.Reports+st.Shed(), uint64(clients*rounds); got != want {
		t.Fatalf("served %d + shed %d = %d, want every request accounted (%d)", st.Reports, st.Shed(), got, want)
	}
	if st.Queued != 0 {
		t.Fatalf("queue gauge nonzero after drain: %+v", st)
	}
}

// TestEngineBaseEpoch pins crash-safe epoch resumption: an engine built
// with BaseEpoch serves that sequence number, and Publish continues the
// sequence from there.
func TestEngineBaseEpoch(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 11)
	e := New(m, Config{Shards: 1, BaseEpoch: 41})
	defer e.Close()
	if got := e.Epoch(); got != 41 {
		t.Fatalf("Epoch() = %d, want 41", got)
	}
	seq, err := e.Publish(perturbed(m, 0.01))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("Publish after BaseEpoch 41 -> seq %d, want 42", seq)
	}
}
