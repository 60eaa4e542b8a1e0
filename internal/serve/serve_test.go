package serve

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
	"time"

	"mocc/internal/core"
	"mocc/internal/objective"
	"mocc/internal/obs"
)

// testObs returns a deterministic observation for (seed, round).
func testObs(m *core.Model, seed, round int) []float64 {
	rng := rand.New(rand.NewSource(int64(seed)*1000003 + int64(round)))
	obs := make([]float64, 3*m.HistoryLen)
	for i := range obs {
		obs[i] = rng.NormFloat64()
	}
	return obs
}

// TestEngineBitIdentical submits from many concurrent clients and pins
// every decision to the single-sample inference path bit for bit: the
// engine's coalescing must never change a result, only amortize its cost.
func TestEngineBitIdentical(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 42)
	e := New(m, Config{Shards: 4, MaxBatch: 16})
	defer e.Close()

	const clients, rounds = 32, 25
	prefs := objective.UniformObjectives(clients, 7)
	got := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.NewClient(uint64(c), prefs[c])
			res := make([]float64, rounds)
			for r := 0; r < rounds; r++ {
				res[r] = cl.Act(testObs(m, c, r))
			}
			got[c] = res
		}(c)
	}
	wg.Wait()

	inf := m.NewInference()
	for c := 0; c < clients; c++ {
		for r := 0; r < rounds; r++ {
			if want := inf.ActFor(prefs[c], testObs(m, c, r)); got[c][r] != want {
				t.Fatalf("client %d round %d: engine %v, single-sample %v", c, r, got[c][r], want)
			}
		}
	}

	st := e.Stats()
	if st.Reports != clients*rounds {
		t.Fatalf("Stats.Reports = %d, want %d", st.Reports, clients*rounds)
	}
	if st.Batches == 0 || st.MaxBatch < 1 || st.MaxBatch > 16 {
		t.Fatalf("implausible batch stats: %+v", st)
	}
}

// TestSubmitChainsFromDone pins the asynchronous submit path: each client
// submits its next observation from inside the previous one's done, on the
// shard goroutine, with nobody blocked in Act. Every action is bit-identical
// to the single-sample path, done runs once per submit, and a Submit after
// Close is answered NaN on the caller's goroutine.
func TestSubmitChainsFromDone(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 11)
	e := New(m, Config{Shards: 2, MaxBatch: 8})

	const clients, rounds = 24, 20
	prefs := objective.UniformObjectives(clients, 3)
	got := make([][]float64, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cl := e.NewClient(uint64(c), prefs[c])
		ins := make([][]float64, rounds)
		for r := range ins {
			ins[r] = testObs(m, c, r)
		}
		var done func(float64, bool)
		done = func(act float64, _ bool) {
			got[c] = append(got[c], act)
			if r := len(got[c]); r < rounds {
				cl.Submit(ins[r], done)
			} else {
				wg.Done()
			}
		}
		wg.Add(1)
		cl.Submit(ins[0], done)
	}
	wg.Wait()
	e.Close()

	inf := m.NewInference()
	for c := range got {
		if len(got[c]) != rounds {
			t.Fatalf("client %d: done ran %d times, want %d", c, len(got[c]), rounds)
		}
		for r, act := range got[c] {
			if want := inf.ActFor(prefs[c], testObs(m, c, r)); act != want {
				t.Fatalf("client %d round %d: engine %v, single-sample %v", c, r, act, want)
			}
		}
	}
	ran := false
	e.NewClient(0, prefs[0]).Submit(testObs(m, 0, 0), func(act float64, _ bool) { ran = math.IsNaN(act) })
	if !ran {
		t.Fatal("Submit after Close was not answered NaN before returning")
	}
}

// holdFirstPass makes a one-shard engine's first forward pass wait inside
// the batch hook until release is called; arrived is closed once it waits.
// Later passes run later, when non-nil. release may be called again (defer
// it after the engine's Close, so a failing test does not leave Close
// waiting on the held pass).
func holdFirstPass(e *Engine, later func(n int)) (arrived chan struct{}, release func()) {
	arrived, held := make(chan struct{}), make(chan struct{})
	first := true // consumer goroutine only
	e.batchHook = func(n int) {
		if first {
			first = false
			close(arrived)
			<-held
		} else if later != nil {
			later(n)
		}
	}
	var once sync.Once
	return arrived, func() { once.Do(func() { close(held) }) }
}

// awaitHeld waits for the held first pass, then for n requests to be
// queued (the held one included).
func awaitHeld(t *testing.T, e *Engine, arrived chan struct{}, n int64) {
	t.Helper()
	select {
	case <-arrived:
	case <-time.After(5 * time.Second):
		t.Fatal("first batch never reached the forward pass")
	}
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Queued < n; time.Sleep(100 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests never queued: %+v", n, e.Stats())
		}
	}
}

// TestSubmitMoreMarksBatchEnd pins Submit's batch boundary: the completions
// of a served forward pass of n see more true n−1 times, then false, chunk
// by chunk (MaxBatch 4 splits a backlog of 10 into 4, 4 and 2). A
// completion that Submits a request shed at the door sees that nested
// completion answered inline with false, although the outer one was true.
func TestSubmitMoreMarksBatchEnd(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 12)
	e := New(m, Config{Shards: 1, MaxBatch: 4, MaxQueue: 11})
	arrived, release := holdFirstPass(e, nil)
	defer e.Close()
	defer release()

	obs := testObs(m, 0, 0)
	var (
		wg     sync.WaitGroup
		seen   []bool // more per completion, in run order (shard goroutine until wg.Wait)
		nested []bool // more of the inline answers to Submits made inside a completion
		tried  bool
	)
	record := func(_ float64, more bool) {
		seen = append(seen, more)
		if more && !tried {
			tried = true
			// Nine of the queue's eleven slots hold the rest of this
			// backlog, so the third Submit is shed at the door.
			for k := 0; k < 8; k++ {
				shed := false
				wg.Add(1)
				e.NewClient(uint64(100+k), objective.BalancePref).Submit(obs, func(act float64, more bool) {
					if math.IsNaN(act) {
						shed = true
						nested = append(nested, more)
					}
					wg.Done()
				})
				if shed {
					break
				}
			}
		}
		wg.Done()
	}
	for c := 0; c < 11; c++ {
		wg.Add(1)
		e.NewClient(uint64(c), objective.BalancePref).Submit(obs, record)
		if c == 0 {
			awaitHeld(t, e, arrived, 1)
		}
	}
	awaitHeld(t, e, arrived, 11)
	release()
	wg.Wait()

	want := []bool{false, true, true, true, false, true, true, true, false, true, false}
	if !slices.Equal(seen, want) {
		t.Fatalf("more per completion = %v, want %v", seen, want)
	}
	if !slices.Equal(nested, []bool{false}) {
		t.Fatalf("inline answers inside a completion saw more = %v, want [false]", nested)
	}
	if st := e.Stats(); st.ShedQueue != 1 {
		t.Fatalf("ShedQueue = %d, want 1", st.ShedQueue)
	}
}

// TestEngineCoalesces pins the one batching path: a shard serves whatever
// queued while it was busy, in one forward pass. The single shard is held
// inside its first pass, burst-1 more clients enqueue behind it, and on
// release the next pass must carry exactly those burst-1 requests — every
// action bit-identical to the single-sample path.
func TestEngineCoalesces(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 3)
	e := New(m, Config{Shards: 1, MaxBatch: 64})
	arrived := make(chan struct{})
	release := make(chan struct{})
	var sizes []int // consumer-private until wg.Wait orders the reads below
	e.batchHook = func(n int) {
		sizes = append(sizes, n)
		if len(sizes) == 1 {
			close(arrived)
			<-release
		}
	}
	defer e.Close()

	const burst = 16
	prefs := objective.UniformObjectives(burst, 5)
	got := make([]float64, burst)
	var wg sync.WaitGroup
	submit := func(c int) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[c] = e.NewClient(uint64(c), prefs[c]).Act(testObs(m, c, 1))
		}()
	}
	submit(0)
	select {
	case <-arrived: // the consumer is now held inside client 0's forward pass
	case <-time.After(5 * time.Second):
		t.Fatal("first batch never reached the forward pass")
	}
	for c := 1; c < burst; c++ {
		submit(c)
	}
	// Queued counts submitted-but-unanswered requests, so it includes the
	// one being held: burst means the other burst-1 are all on the stack.
	for deadline := time.Now().Add(5 * time.Second); e.Stats().Queued < burst; {
		if time.Now().After(deadline) {
			t.Fatalf("burst never queued: %+v", e.Stats())
		}
		time.Sleep(100 * time.Microsecond)
	}
	close(release)
	wg.Wait()

	if len(sizes) != 2 || sizes[0] != 1 || sizes[1] != burst-1 {
		t.Fatalf("forward-pass sizes = %v, want [1 %d]", sizes, burst-1)
	}
	inf := m.NewInference()
	for c := range got {
		if want := inf.ActFor(prefs[c], testObs(m, c, 1)); got[c] != want {
			t.Fatalf("client %d: engine %v, single-sample %v", c, got[c], want)
		}
	}
}

// TestEngineLoneClientServedAtOnce is the other end of the same path: with
// nobody else submitting, every request is its own forward pass — nothing
// waits for a batch that will never form — and every flush is attributed
// to the partial-batch cause.
func TestEngineLoneClientServedAtOnce(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 4)
	reg := obs.NewRegistry()
	e := New(m, Config{Shards: 1, Metrics: reg})
	defer e.Close()

	const k = 50
	cl := e.NewClient(1, objective.BalancePref)
	for r := 0; r < k; r++ {
		if v := cl.Act(testObs(m, 1, r)); math.IsNaN(v) {
			t.Fatalf("round %d shed", r)
		}
	}
	if st := e.Stats(); st.Reports != k || st.Batches != k || st.MaxBatch != 1 {
		t.Fatalf("lone client was batched: %+v", st)
	}
	eager := reg.Counter(`mocc_serve_flushes_total{cause="eager"}`, "").Value()
	full := reg.Counter(`mocc_serve_flushes_total{cause="full"}`, "").Value()
	if eager != k || full != 0 {
		t.Fatalf("flush causes eager=%d full=%d, want %d and 0", eager, full, k)
	}
}

// TestEngineHotSwap publishes a storm of frozen model generations while
// clients keep submitting, and proves (a) no client ever observes a torn
// parameter set — every decision bit-matches the single-sample result of
// one complete published generation — and (b) the request path keeps making
// progress throughout the storm, i.e. Report never blocks on a swap beyond
// its own batch flush (Publish itself is one atomic pointer store).
func TestEngineHotSwap(t *testing.T) {
	base := core.NewModel(core.HistoryLen, 11)
	const generations = 8
	models := make([]*core.Model, generations)
	models[0] = base
	for g := 1; g < generations; g++ {
		c := models[g-1].Clone()
		for _, p := range c.ActorParams() {
			for i := range p.Value {
				p.Value[i] += 1e-3 * float64(g)
			}
		}
		models[g] = c
	}

	// Per-client reference set: the decision each complete generation
	// would make for that client's fixed (preference, observation).
	const clients = 8
	prefs := objective.UniformObjectives(clients, 13)
	obs := make([][]float64, clients)
	refs := make([][]float64, clients)
	for c := 0; c < clients; c++ {
		obs[c] = testObs(base, c, 0)
		refs[c] = make([]float64, generations)
		for g, mg := range models {
			refs[c][g] = mg.NewInference().ActFor(prefs[c], obs[c])
		}
		for g := 1; g < generations; g++ {
			if refs[c][g] == refs[c][g-1] {
				t.Fatalf("client %d: generations %d and %d decide identically; perturbation too small to detect tearing", c, g-1, g)
			}
		}
	}

	e := New(base, Config{Shards: 2, MaxBatch: 8})
	defer e.Close()

	stop := make(chan struct{})
	acted := make([]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.NewClient(uint64(c), prefs[c])
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := cl.Act(obs[c])
				ok := false
				for _, ref := range refs[c] {
					if v == ref {
						ok = true
						break
					}
				}
				if !ok {
					t.Errorf("client %d: decision %v matches no published generation — torn parameter set", c, v)
					return
				}
				acted[c]++
			}
		}(c)
	}

	// Publish storm: every generation in order, spaced to interleave with
	// live batches.
	for g := 1; g < generations; g++ {
		seq, err := e.Publish(models[g])
		if err != nil {
			t.Fatalf("Publish generation %d: %v", g, err)
		}
		if seq != uint64(g) {
			t.Fatalf("Publish generation %d: epoch %d", g, seq)
		}
		time.Sleep(2 * time.Millisecond)
	}
	close(stop)
	wg.Wait()

	for c := 0; c < clients; c++ {
		if acted[c] < 10 {
			t.Errorf("client %d made only %d decisions during the swap storm — request path stalled", c, acted[c])
		}
	}
	if st := e.Stats(); st.Epoch != generations-1 || st.Swaps == 0 {
		t.Fatalf("swap stats not recorded: %+v", st)
	}
}

// TestEnginePublishRejectsNonFinite mirrors OnlineAdapt's rollback guard:
// a poisoned model must never become a live generation.
func TestEnginePublishRejectsNonFinite(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 5)
	e := New(m, Config{Shards: 1})
	defer e.Close()

	bad := m.Clone()
	bad.ActorParams()[0].Value[0] = math.NaN()
	if _, err := e.Publish(bad); err == nil {
		t.Fatal("Publish accepted a NaN-poisoned model")
	}
	if e.Epoch() != 0 {
		t.Fatalf("rejected publish advanced the epoch to %d", e.Epoch())
	}
}

// TestEngineClose covers the shutdown handshake: racing Acts either get a
// real decision or NaN, Close drains and returns, and post-Close Acts are
// NaN without enqueueing.
func TestEngineClose(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 9)
	e := New(m, Config{Shards: 2, MaxBatch: 8})

	obs := testObs(m, 2, 2)
	var wg sync.WaitGroup
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.NewClient(uint64(c), objective.RTCPref)
			for {
				v := cl.Act(obs)
				if math.IsNaN(v) {
					return // engine closed under us
				}
			}
		}(c)
	}
	time.Sleep(5 * time.Millisecond)
	e.Close()
	e.Close() // idempotent
	wg.Wait()

	cl := e.NewClient(99, objective.LatencyPref)
	if v := cl.Act(obs); !math.IsNaN(v) {
		t.Fatalf("Act after Close = %v, want NaN", v)
	}
}

// TestEngineStress churns many clients against few shards while publishes
// land concurrently — the package's -race workout.
func TestEngineStress(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 21)
	e := New(m, Config{Shards: 2, MaxBatch: 8})
	defer e.Close()

	clients := 64
	rounds := 30
	if testing.Short() {
		clients, rounds = 16, 10
	}
	prefs := objective.UniformObjectives(clients, 3)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.NewClient(uint64(c), prefs[c])
			obs := testObs(m, c, 0)
			for r := 0; r < rounds; r++ {
				if v := cl.Act(obs); math.IsNaN(v) {
					t.Errorf("client %d: NaN decision while engine open", c)
					return
				}
				if r%10 == 9 {
					cl.SetWeights(prefs[(c+r)%clients])
				}
			}
		}(c)
	}
	pubDone := make(chan struct{})
	go func() {
		defer close(pubDone)
		for g := 0; g < 5; g++ {
			if _, err := e.Publish(m.Clone()); err != nil {
				t.Errorf("Publish: %v", err)
				return
			}
			time.Sleep(time.Millisecond)
		}
	}()
	wg.Wait()
	<-pubDone
}
