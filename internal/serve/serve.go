// Package serve implements the inference engine every mocc.Library decides
// through, over a core.Model. The sharded engine (New) coalesces concurrent
// per-app rate requests into one batched forward pass per shard, so a fleet
// of applications pays the batched kernels' ns/sample instead of one full
// single-sample forward per Report. Batching is load-adaptive, with no
// timer: a shard consumer serves whatever is queued the moment it is free,
// so a lone request is served at once and a busy shard serves everything
// that queued while it was busy, in forward passes of at most MaxBatch. The
// inline engine (NewInline) has no shards: a client runs its decision as a
// batch of one on the calling goroutine. Both provide epoch-based model
// hot-swap — a retrained model is published by one atomic pointer store and
// picked up by every shard between batches, or by an inline client before
// its next decision — generalizing the model's paramMu arbitration so the
// request path never blocks on a swap.
//
// Determinism: every decision is bit-identical to the single-sample
// inference path (core.Inference.ActFor) regardless of which other requests
// happened to share its micro-batch, because the batched kernels preserve
// each row's floating-point accumulation order. Batching changes latency
// and throughput, never a decision; the two engines give the same bits.
//
// Resilience: the engine degrades instead of wedging. Each shard bounds its
// pending queue (requests past the bound are shed with NaN — "leave the
// rate unchanged", the established safe answer), optionally sheds requests
// that waited past a decision deadline, recovers inference panics per batch
// (the poisoned batch answers NaN, the shard keeps serving), and restarts a
// crashed consumer goroutine under a watchdog rather than stranding its
// queue. The inline engine recovers a panicking decision the same way. The
// previous model generation is retained so a bad Publish can be undone by
// Rollback without having the old parameters at hand.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mocc/internal/core"
	"mocc/internal/objective"
	"mocc/internal/obs"
)

// Config sizes the engine. The zero value picks sensible defaults.
type Config struct {
	// Shards is the number of independent batching queues (and consumer
	// goroutines). Clients are assigned to shards by ID hash. Defaults to
	// GOMAXPROCS.
	Shards int
	// MaxBatch caps how many requests one forward pass serves; a larger
	// backlog is served in MaxBatch-sized passes. Defaults to 64, where
	// the batched kernels' per-sample advantage has saturated.
	MaxBatch int
	// MaxQueue bounds each shard's pending-request queue. A request
	// arriving at a full shard is shed immediately: Act returns NaN
	// ("leave the rate unchanged") without enqueueing, so overload
	// surfaces as bounded queueing delay plus shed answers instead of
	// unbounded latency. Defaults to 4096 per shard; negative disables
	// the bound.
	MaxQueue int
	// Deadline, when positive, additionally sheds requests that already
	// waited in the queue longer than this before reaching a forward
	// pass: they are answered NaN instead of being served stale. Zero
	// disables deadline shedding.
	Deadline time.Duration
	// BaseEpoch is the sequence number assigned to the initial model (the
	// one passed to New). A daemon resuming from a crash-safe snapshot
	// passes the snapshot's epoch here so clients observe a continuous
	// epoch sequence across the restart. Defaults to 0.
	BaseEpoch uint64
	// Metrics, when non-nil, registers the engine's series on the
	// registry: cumulative counters are CounterFuncs over the atomics the
	// engine already maintains (zero added hot-path cost), and the only
	// new hot-path work is the batch-size and decision-latency histograms
	// plus one striped flush-cause counter add per flush. Nil disables
	// everything at ~zero cost (nil-receiver no-ops).
	Metrics *obs.Registry
	// Events, when non-nil, receives structured engine events: epoch
	// publishes, shard panics and watchdog restarts, and sheds (throttled
	// to at most one event per second — the per-cause counters carry the
	// volume).
	Events *obs.EventLog
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 4096
	}
	if c.MaxQueue < 0 {
		c.MaxQueue = 0 // unlimited
	}
	if c.Deadline < 0 {
		c.Deadline = 0
	}
	return c
}

// epochState is one published model generation. Instances are immutable
// once stored in Engine.epoch; a swap is a single pointer store, so readers
// always observe a complete (seq, model) pair — never a torn mix. live
// marks NewInline's boot generation, whose model keeps changing under its
// parameter lock (OnlineAdapt, Publish syncing it).
type epochState struct {
	seq   uint64
	model *core.Model
	live  bool
}

// request is one in-flight decision. Each Client owns exactly one, reused
// across calls: the submit path allocates nothing.
type request struct {
	next   *request // intrusive Treiber-stack link, owned by the shard after push
	w      objective.Weights
	obs    []float64
	enq    time.Time // submit time, set only for deadline shedding or a latency sample
	sample bool      // observe this request's submit-to-answer latency
	epoch  uint64    // model generation that served (or shed) the request
	done   func(act float64, more bool)
}

// Stats is a point-in-time snapshot of engine counters.
//
// An inline engine writes no counter on a clean decision: it reads Shards
// 0, and Reports, Batches, MaxBatch and Queued stay 0.
type Stats struct {
	Shards   int    // configured shard count (0 inline)
	Epoch    uint64 // current model generation (BaseEpoch = the model passed to New)
	Reports  uint64 // decisions served
	Batches  uint64 // forward passes run
	MaxBatch int    // largest coalesced batch observed
	Swaps    uint64 // epoch applications summed over shards (over clients inline)

	Queued       int64  // requests currently queued, summed over shards
	ShedQueue    uint64 // requests shed at submit: shard queue at MaxQueue
	ShedDeadline uint64 // requests shed in the shard: queued past Deadline
	Panics       uint64 // inference panics recovered (batch or inline decision answered NaN)
	Restarts     uint64 // consumer goroutines restarted by the watchdog
	Rollbacks    uint64 // generation rollbacks applied (Rollback)
}

// Shed returns the total requests shed for any reason.
func (s Stats) Shed() uint64 { return s.ShedQueue + s.ShedDeadline }

// Engine is the inference engine: sharded (New) or inline (NewInline, no
// shards). All methods are safe for concurrent use.
type Engine struct {
	cfg    Config
	epoch  atomic.Pointer[epochState]
	prev   atomic.Pointer[epochState] // generation displaced by the last Publish/Rollback
	shards []*shard                   // empty inline

	closed    atomic.Bool
	inflight  atomic.Int64
	closeOnce sync.Once
	closedCh  chan struct{} // closed once every shard has exited

	reports      atomic.Uint64
	batches      atomic.Uint64
	swaps        atomic.Uint64
	maxBatch     atomic.Int64
	shedQueue    atomic.Uint64
	shedDeadline atomic.Uint64
	panics       atomic.Uint64
	restarts     atomic.Uint64
	rollbacks    atomic.Uint64

	// batchHook, when non-nil, runs inside the per-batch panic guard just
	// before each forward pass (inside the inline decision's guard, with
	// n = 1); tests inject inference panics here. It must be installed
	// before the first Act (the wake-channel send then orders the write
	// before any consumer read).
	batchHook func(n int)
	// crashNext, when set, makes the next woken consumer panic at the top
	// of its loop, exercising the watchdog restart path.
	crashNext atomic.Bool

	// Observability sinks; every field is nil-safe, so the instrumented
	// paths call through unconditionally.
	met struct {
		batchSize *obs.Histogram // coalesced chunk size per forward pass
		latency   *obs.Histogram // submit-to-answer ns, sampled 1-in-8 per client
		flushFull *obs.Counter   // flushes of MaxBatch or more queued requests
		flushEagr *obs.Counter   // flushes of a partial batch
		flushDrn  *obs.Counter   // flushes on the Close drain path
	}
	events  *obs.EventLog
	shedLim obs.Limiter
}

// registerMetrics wires the engine's series onto cfg.Metrics. Cumulative
// counters read the atomics the engine already maintains, so they cost
// nothing per request; only the histograms and flush-cause counters add
// hot-path work, and those are nil (no-op) when metrics are disabled.
func (e *Engine) registerMetrics() {
	r := e.cfg.Metrics // nil registry => every handle below is nil
	e.events = e.cfg.Events
	r.CounterFunc("mocc_serve_reports_total", "Decisions served by the batching engine.",
		func() uint64 { return e.reports.Load() })
	r.CounterFunc("mocc_serve_batches_total", "Forward passes run.",
		func() uint64 { return e.batches.Load() })
	r.CounterFunc("mocc_serve_swaps_total", "Epoch applications summed over shards.",
		func() uint64 { return e.swaps.Load() })
	r.CounterFunc("mocc_serve_panics_total", "Inference panics recovered (batch answered NaN).",
		func() uint64 { return e.panics.Load() })
	r.CounterFunc("mocc_serve_restarts_total", "Shard consumers restarted by the watchdog.",
		func() uint64 { return e.restarts.Load() })
	r.CounterFunc("mocc_serve_rollbacks_total", "Generation rollbacks applied.",
		func() uint64 { return e.rollbacks.Load() })
	r.CounterFunc(`mocc_serve_sheds_total{cause="queue"}`, "Requests shed by cause.",
		func() uint64 { return e.shedQueue.Load() })
	r.CounterFunc(`mocc_serve_sheds_total{cause="deadline"}`, "Requests shed by cause.",
		func() uint64 { return e.shedDeadline.Load() })
	r.GaugeFunc("mocc_serve_queue_depth", "Requests queued across shards right now.",
		func() float64 {
			var queued int64
			for _, s := range e.shards {
				queued += s.queued.Load()
			}
			return float64(queued)
		})
	r.GaugeFunc("mocc_serve_epoch", "Currently published model generation.",
		func() float64 { return float64(e.Epoch()) })
	e.met.batchSize = r.Histogram("mocc_serve_batch_size",
		"Coalesced requests per forward pass.", 1)
	e.met.latency = r.Histogram("mocc_serve_decision_latency_seconds",
		"Submit-to-answer decision latency, sampled 1 in 8 requests per client.", 1e-9)
	e.met.flushFull = r.Counter(`mocc_serve_flushes_total{cause="full"}`,
		"Shard flushes by cause.")
	e.met.flushDrn = r.Counter(`mocc_serve_flushes_total{cause="drain"}`,
		"Shard flushes by cause.")
	e.met.flushEagr = r.Counter(`mocc_serve_flushes_total{cause="eager"}`,
		"Shard flushes by cause.")
}

// shedEvent emits a throttled EvShed; the per-cause counters carry the
// real volume. cause is a static string, so the rare emission allocates
// nothing on the caller's behalf beyond the event itself.
func (e *Engine) shedEvent(cause string) {
	if e.events != nil && e.shedLim.Allow(time.Second) {
		e.events.Emit(obs.Event{Type: obs.EvShed, Epoch: e.Epoch(), Msg: cause})
	}
}

// New starts a sharded engine serving decisions from m, which becomes epoch
// cfg.BaseEpoch (0 by default). m must be frozen, like every model published
// later (see Publish): it is the first Publish's rollback target.
func New(m *core.Model, cfg Config) *Engine {
	e := &Engine{cfg: cfg.withDefaults(), closedCh: make(chan struct{})}
	e.epoch.Store(&epochState{seq: e.cfg.BaseEpoch, model: m})
	e.registerMetrics()
	e.shards = make([]*shard, e.cfg.Shards)
	for i := range e.shards {
		s := &shard{
			eng:  e,
			idx:  i,
			wake: make(chan struct{}, 1),
			stop: make(chan struct{}),
			done: make(chan struct{}),
		}
		e.shards[i] = s
		go s.loop()
	}
	return e
}

// NewInline returns an engine with no shards: a client's Act and Submit run
// the decision as a batch of one on the calling goroutine, through the
// client's own core.Inference. Only cfg.Metrics and cfg.Events are used. m
// becomes epoch 0 and may be the library's live, online-adapting model:
// each decision takes its read lock, so it sees the parameters of the last
// completed OnlineAdapt iteration. The first Publish retains a frozen clone
// of m as its rollback target.
func NewInline(m *core.Model, cfg Config) *Engine {
	e := &Engine{cfg: Config{Metrics: cfg.Metrics, Events: cfg.Events}, closedCh: make(chan struct{})}
	e.epoch.Store(&epochState{model: m, live: true})
	e.registerMetrics()
	return e
}

// Publish atomically installs m as the new model generation and returns its
// epoch sequence number. Shards pick the new model up between batches; no
// request ever blocks on the swap, and no request ever observes a torn
// parameter set (each batch runs entirely on whichever generation its shard
// held when the batch started). m must not be mutated after Publish —
// callers hand over a frozen clone. Models failing the finite check are
// rejected, mirroring OnlineAdapt's rollback guard. The displaced
// generation is retained for Rollback; a live one (NewInline's boot model)
// as a frozen clone taken under its read lock, since it keeps changing.
func (e *Engine) Publish(m *core.Model) (uint64, error) {
	if m == nil {
		return 0, errors.New("serve: Publish of nil model")
	}
	if err := m.CheckFinite(); err != nil {
		return 0, fmt.Errorf("serve: refusing to publish: %w", err)
	}
	for {
		old := e.epoch.Load()
		next := &epochState{seq: old.seq + 1, model: m}
		displaced := old
		if old.live {
			old.model.RLockParams()
			displaced = &epochState{seq: old.seq, model: old.model.Clone()}
			old.model.RUnlockParams()
		}
		if e.epoch.CompareAndSwap(old, next) {
			e.prev.Store(displaced)
			e.events.Emit(obs.Event{Type: obs.EvEpochPublish, Epoch: next.seq})
			return next.seq, nil
		}
	}
}

// Rollback re-installs the generation displaced by the most recent Publish
// (or Rollback) as a new epoch, returning the new sequence number and the
// model now being served. It errors when nothing has ever been published.
// A second Rollback undoes the first (the generations swap places), so an
// accidental rollback is itself recoverable. Like Publish, the swap is one
// atomic pointer store: shards pick it up between batches.
func (e *Engine) Rollback() (uint64, *core.Model, error) {
	for {
		prev := e.prev.Load()
		if prev == nil {
			return 0, nil, errors.New("serve: no prior generation to roll back to")
		}
		cur := e.epoch.Load()
		next := &epochState{seq: cur.seq + 1, model: prev.model}
		if e.epoch.CompareAndSwap(cur, next) {
			e.prev.Store(cur)
			e.rollbacks.Add(1)
			return next.seq, prev.model, nil
		}
	}
}

// Epoch returns the sequence number of the currently published generation.
func (e *Engine) Epoch() uint64 { return e.epoch.Load().seq }

// Stats returns a point-in-time snapshot of the engine counters.
func (e *Engine) Stats() Stats {
	var queued int64
	for _, s := range e.shards {
		queued += s.queued.Load()
	}
	return Stats{
		Shards:       e.cfg.Shards,
		Epoch:        e.Epoch(),
		Reports:      e.reports.Load(),
		Batches:      e.batches.Load(),
		MaxBatch:     int(e.maxBatch.Load()),
		Swaps:        e.swaps.Load(),
		Queued:       queued,
		ShedQueue:    e.shedQueue.Load(),
		ShedDeadline: e.shedDeadline.Load(),
		Panics:       e.panics.Load(),
		Restarts:     e.restarts.Load(),
		Rollbacks:    e.rollbacks.Load(),
	}
}

// Close drains every queued request, runs its completion, stops the shard
// goroutines, and returns once they have exited. Act and Submit calls
// racing Close either complete normally or are answered NaN without
// enqueueing; every later one is answered NaN. Close is idempotent.
func (e *Engine) Close() {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		// Every Act that made it past the closed check holds an inflight
		// ref until its result is delivered; the shards are still running,
		// so this drains rather than deadlocks.
		for e.inflight.Load() != 0 {
			time.Sleep(10 * time.Microsecond)
		}
		for _, s := range e.shards {
			close(s.stop)
		}
		for _, s := range e.shards {
			<-s.done
		}
		close(e.closedCh)
	})
	<-e.closedCh
}

// shardFor maps a client key to a shard by splitmix64 hash, so shard load
// stays balanced whether handle IDs are sequential or sparse.
func (e *Engine) shardFor(key uint64) *shard {
	h := key
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return e.shards[h%uint64(len(e.shards))]
}

// Client is one application's handle onto the engine, a cc.Policy that
// can retune its preference between decisions: Act, Submit and SetWeights
// must be serialized by the caller (the public library does this per
// application handle) — at most one decision per Client is in flight — but
// any number of Clients submit concurrently.
type Client struct {
	eng *Engine
	sh  *shard // nil inline
	w   objective.Weights
	nth uint8 // request counter driving 1-in-8 latency sampling
	req request

	// Act's own completion on a shard: deliver stores the action, wakes Act.
	out     float64
	wake    chan struct{}
	deliver func(act float64, more bool)

	// inf is the inline view, built over generation req.epoch (nil until
	// the first inline decision, and after a recovered panic).
	inf *core.Inference
}

// NewClient returns a client bound to the shard selected by key's hash (or,
// inline, to no shard), initially acting under preference w.
func (e *Engine) NewClient(key uint64, w objective.Weights) *Client {
	c := &Client{eng: e, w: w}
	if len(e.shards) == 0 {
		return c
	}
	c.sh, c.wake = e.shardFor(key), make(chan struct{}, 1)
	c.deliver = func(act float64, _ bool) {
		c.out = act
		c.wake <- struct{}{}
	}
	return c
}

// SetWeights swaps the preference used by subsequent Act calls.
func (c *Client) SetWeights(w objective.Weights) { c.w = w }

// Weights returns the currently applied preference.
func (c *Client) Weights() objective.Weights { return c.w }

// Act submits one observation and blocks until its micro-batch is served,
// returning the deterministic action — bit-identical to what
// core.Inference.ActFor would produce on the current epoch's model. It is
// Submit plus a wait on the client's own completion (inline, the decision
// itself); see Submit for the answer's contract.
func (c *Client) Act(obs []float64) float64 {
	if c.sh == nil {
		return c.actInline(obs)
	}
	c.Submit(obs, c.deliver)
	<-c.wake
	return c.out
}

// Submit enqueues one observation and returns without waiting: done
// receives the action once the observation's micro-batch is served. done
// runs exactly once, on the shard's consumer goroutine — or on the calling
// goroutine, before Submit returns, when the request is answered at the
// door or the engine is inline — so it must not block or panic: every other
// request of the shard waits behind it. done may Submit the client's next
// observation.
//
// more says where a batch ends: it is true only when the shard runs the
// completion of another request of the same forward pass right after this
// one, so a host answering many requests (a rate daemon) can hold their
// replies and send them together when it sees false. Every other answer —
// shed at the door or past the deadline, a poisoned generation or
// inference panic, Close, a consumer restart, any inline answer — passes
// false.
//
// The submit path is lock-free: one CAS push onto the shard's intrusive
// stack plus at most one non-blocking channel wake. obs must stay valid and
// unmodified until done runs (it is read, never written, and no reference
// is retained afterwards). The action is NaN — which the controller layer
// treats as "leave the rate unchanged" — after Close, when the shard's
// queue is at MaxQueue (shed at the door), or when the request waited past
// the configured Deadline before being served.
func (c *Client) Submit(obs []float64, done func(act float64, more bool)) {
	if c.sh == nil {
		done(c.actInline(obs), false)
		return
	}
	e := c.eng
	if e.closed.Load() {
		done(math.NaN(), false)
		return
	}
	s := c.sh
	if max := e.cfg.MaxQueue; max > 0 && s.queued.Load() >= int64(max) {
		e.shedQueue.Add(1)
		e.shedEvent("queue")
		done(math.NaN(), false)
		return
	}
	e.inflight.Add(1)
	if e.closed.Load() {
		// Raced with Close: it may already have observed inflight==0, so
		// the shards may be gone. Back out without enqueueing.
		e.inflight.Add(-1)
		done(math.NaN(), false)
		return
	}
	r := &c.req
	r.w = c.w
	r.obs = obs
	r.done = done
	// The latency histogram samples 1 in 8 requests per client: reading
	// the clock twice per decision is the single largest observability
	// cost on this path, and the percentiles of a fleet-scale request
	// stream are statistically indistinguishable at a 1/8 sampling rate.
	// A configured Deadline needs the enqueue time on every request
	// regardless, so sampling then costs only the time.Since.
	r.sample = e.met.latency != nil && c.nth&7 == 0
	c.nth++
	if e.cfg.Deadline > 0 || r.sample {
		r.enq = time.Now()
	}
	s.queued.Add(1)
	for {
		old := s.head.Load()
		r.next = old
		if s.head.CompareAndSwap(old, r) {
			if old == nil {
				// Empty -> non-empty transition: wake the consumer. The
				// buffer holds one token, so a pending wake makes this a
				// no-op and the consumer still drains everything.
				select {
				case s.wake <- struct{}{}:
				default:
				}
			}
			break
		}
	}
}

// LastEpoch returns the model generation that served (or shed) the most
// recent decision; inside Submit's done it is the epoch of the decision
// being delivered. Like Act itself it must be serialized per client.
func (c *Client) LastEpoch() uint64 { return c.req.epoch }

// actInline is the inline engine's decision, a batch of one on the calling
// goroutine: NaN after Close, else the forward pass over the current
// generation, (re)building the client's view when the generation changed.
// A panic in either is recovered as shard.actBatch recovers one: NaN,
// Panics+1, EvShardPanic and a fresh view for the next decision. A clean
// decision writes no engine counter.
func (c *Client) actInline(x []float64) (act float64) {
	e := c.eng
	if e.closed.Load() {
		return math.NaN()
	}
	ep := e.epoch.Load()
	if c.inf != nil && c.req.epoch != ep.seq {
		c.inf = nil
		e.swaps.Add(1)
	}
	c.req.epoch = ep.seq
	defer func() {
		if r := recover(); r != nil {
			act, c.inf = math.NaN(), nil
			e.panics.Add(1)
			e.events.Emit(obs.Event{Type: obs.EvShardPanic, Epoch: ep.seq,
				Msg: fmt.Sprintf("inline client: inference panic: %v", r)})
		}
	}()
	if c.inf == nil {
		c.inf = ep.model.NewInference()
	}
	if h := e.batchHook; h != nil {
		h(1)
	}
	return c.inf.ActFor(c.w, x)
}

// shard is one batching queue plus its consumer goroutine.
type shard struct {
	eng    *Engine
	idx    int                     // shard index; doubles as the metric stripe
	head   atomic.Pointer[request] // MPSC Treiber stack of pending requests
	queued atomic.Int64            // pushed but not yet finished
	wake   chan struct{}
	stop   chan struct{}
	done   chan struct{}

	// Consumer-private state below: only the consumer goroutine touches it.
	started  bool // an inference view has been built at least once
	epochSeq uint64
	bi       *core.BatchInference
	ws       []objective.Weights
	obs      [][]float64
	out      []float64
	live     []*request // deadline-filtered chunk scratch
}

// finish releases the request's queue slot and runs its completion with
// Submit's more. The submitter may reuse the request from inside done, so
// every field is read before the call. The in-flight reference is dropped
// only after done has returned, so Close also waits for every completion.
func (s *shard) finish(r *request, v float64, more bool) {
	done := r.done
	r.obs = nil // do not pin the submitter's buffer between decisions
	if r.sample {
		s.eng.met.latency.Observe(uint64(time.Since(r.enq)))
	}
	s.queued.Add(-1)
	done(v, more)
	s.eng.inflight.Add(-1)
}

// takeAll detaches the whole pending stack and appends it to into in one
// walk (LIFO arrival order). Order does not affect results — rows are
// independent and bit-identical either way — and it cannot starve anyone:
// every request detached here is served before the consumer sleeps again,
// so per-request latency is bounded by one drain cycle regardless of
// position. Skipping the FIFO reversal halves the dependent pointer-chase
// passes over the node list, which at fleet scale (10k queued requests,
// cold cache lines) is a measurable share of per-report cost.
func (s *shard) takeAll(into []*request) []*request {
	for r := s.head.Swap(nil); r != nil; r = r.next {
		into = append(into, r)
	}
	return into
}

// loop is the consumer watchdog: it runs the consume loop and, if a panic
// ever escapes the per-batch guards (a crashed consumer would otherwise
// strand its queue forever — every submitter blocked on done, Close spinning
// on inflight), answers everything still queued with NaN and restarts the
// consumer instead of wedging the shard.
func (s *shard) loop() {
	defer close(s.done)
	for s.consume() {
		s.eng.restarts.Add(1)
		s.eng.events.Emit(obs.Event{Type: obs.EvShardRestart, Epoch: s.epochSeq,
			Msg: fmt.Sprintf("shard %d consumer restarted", s.idx)})
		var next *request
		for r := s.head.Swap(nil); r != nil; r = next {
			// The submitter may reuse r the instant finish delivers, so
			// the link must be read before delivery.
			next = r.next
			s.finish(r, math.NaN(), false)
		}
		s.bi = nil // rebuild the inference view on the next batch
	}
}

// consume runs the consumer loop, recovering a panic into a restart.
func (s *shard) consume() (restart bool) {
	defer func() {
		if recover() != nil {
			restart = true
		}
	}()
	s.run()
	return false
}

// run is the shard consumer loop, run to completion: sleep until woken,
// serve whatever is queued, repeat — so batch size adapts to load by
// construction (see the package comment).
func (s *shard) run() {
	var batch []*request
	for {
		select {
		case <-s.wake:
		case <-s.stop:
			batch = s.takeAll(batch[:0])
			s.countFlush(s.eng.met.flushDrn, len(batch))
			s.serve(batch)
			return
		}
		if s.eng.crashNext.CompareAndSwap(true, false) {
			panic("serve: injected consumer crash")
		}
		// Yield once before committing to a batch so every submitter that
		// is already runnable gets to enqueue. Without this, on a
		// single-core host the waker and this consumer ping-pong through
		// the scheduler's runnext slot: batches stay at size one and the
		// other clients on the shard starve until preemption.
		runtime.Gosched()
		batch = s.takeAll(batch[:0])
		cause := s.eng.met.flushEagr
		if len(batch) >= s.eng.cfg.MaxBatch {
			cause = s.eng.met.flushFull
		}
		s.countFlush(cause, len(batch))
		s.serve(batch)
	}
}

// countFlush attributes one non-empty flush to its cause on the shard's
// counter stripe.
func (s *shard) countFlush(c *obs.Counter, n int) {
	if n > 0 {
		c.AddAt(s.idx, 1)
	}
}

// rebuild replaces the shard's inference view with one over ep's model,
// recovering a panic (a poisoned generation) into a false return.
func (s *shard) rebuild(ep *epochState) (ok bool) {
	defer func() {
		if recover() != nil {
			ok = false
			s.bi = nil
		}
	}()
	s.bi = ep.model.NewBatchInference()
	return true
}

// actBatch runs one guarded forward pass over the first n staged rows,
// recovering an inference panic into an error so one poisoned batch cannot
// crash the shard.
func (s *shard) actBatch(n int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: inference panic: %v", r)
		}
	}()
	if h := s.eng.batchHook; h != nil {
		h(n)
	}
	s.bi.ActBatch(s.ws, s.obs, s.out[:n])
	return nil
}

// serve runs the coalesced requests through the current epoch's model in
// MaxBatch-sized forward passes and delivers each result. Requests past the
// decision deadline are shed with NaN; a panicking forward pass sheds its
// chunk the same way and the shard keeps serving.
func (s *shard) serve(reqs []*request) {
	if len(reqs) == 0 {
		return
	}
	// Epoch check between batches: a published swap is one atomic pointer
	// load away, and rebuilding the inference view costs a few KB of
	// evaluator scratch only when the generation actually changed.
	ep := s.eng.epoch.Load()
	if s.bi == nil || ep.seq != s.epochSeq {
		first := !s.started
		if !s.rebuild(ep) {
			s.eng.panics.Add(1)
			s.eng.events.Emit(obs.Event{Type: obs.EvShardPanic, Epoch: ep.seq,
				Msg: fmt.Sprintf("shard %d: poisoned generation, batch of %d answered NaN", s.idx, len(reqs))})
			for _, r := range reqs {
				r.epoch = ep.seq
				s.finish(r, math.NaN(), false)
			}
			return
		}
		s.started = true
		s.epochSeq = ep.seq
		if !first {
			s.eng.swaps.Add(1)
		}
	}
	maxB := s.eng.cfg.MaxBatch
	dl := s.eng.cfg.Deadline
	for off := 0; off < len(reqs); off += maxB {
		end := min(off+maxB, len(reqs))
		chunk := reqs[off:end]
		if dl > 0 {
			now := time.Now()
			s.live = s.live[:0]
			for _, r := range chunk {
				if now.Sub(r.enq) > dl {
					s.eng.shedDeadline.Add(1)
					s.eng.shedEvent("deadline")
					r.epoch = ep.seq
					s.finish(r, math.NaN(), false)
				} else {
					s.live = append(s.live, r)
				}
			}
			chunk = s.live
		}
		n := len(chunk)
		if n == 0 {
			continue
		}
		s.ws = s.ws[:0]
		s.obs = s.obs[:0]
		for _, r := range chunk {
			s.ws = append(s.ws, r.w)
			s.obs = append(s.obs, r.obs)
		}
		if cap(s.out) < n {
			s.out = make([]float64, n)
		}
		if err := s.actBatch(n); err != nil {
			s.eng.panics.Add(1)
			s.eng.events.Emit(obs.Event{Type: obs.EvShardPanic, Epoch: ep.seq,
				Msg: fmt.Sprintf("shard %d: %v", s.idx, err)})
			s.bi = nil // fresh inference view before the next batch
			for _, r := range chunk {
				r.epoch = ep.seq
				s.finish(r, math.NaN(), false)
			}
			continue
		}
		// Counters are maintained here, one RMW per chunk, rather than one
		// per request on the submit path.
		s.eng.reports.Add(uint64(n))
		s.eng.batches.Add(1)
		s.eng.met.batchSize.Observe(uint64(n))
		for cur := s.eng.maxBatch.Load(); int64(n) > cur; cur = s.eng.maxBatch.Load() {
			if s.eng.maxBatch.CompareAndSwap(cur, int64(n)) {
				break
			}
		}
		for i, r := range chunk {
			r.epoch = ep.seq
			s.finish(r, s.out[i], i < n-1)
		}
	}
	// Drop observation references so client buffers are not pinned
	// between batches.
	for i := range s.obs {
		s.obs[i] = nil
	}
	for i := range s.live {
		s.live[i] = nil
	}
	s.live = s.live[:0]
}
