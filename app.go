package mocc

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"mocc/internal/cc"
	"mocc/internal/objective"
	"mocc/internal/obs"
	"mocc/internal/serve"
)

// App is a registered application's handle. Its hot path — Report — runs
// entirely on per-handle state: the handle owns its controller, its
// telemetry, and a client of the library's inference engine (serve.Client),
// so applications on different goroutines never serialize against each
// other. Without WithServing the client decides inline, on the caller's
// goroutine, through a private inference view: the only shared touch is the
// read side of the model's parameter lock, contended only while OnlineAdapt
// runs. With WithServing it submits to a shard of the batching engine.
//
// All methods are safe for concurrent use; calls on one handle serialize
// against each other, calls on different handles run in parallel.
type App struct {
	lib *Library
	id  AppID

	// rateBits publishes the current pacing rate (float64 bits), so Rate
	// is a lock-free read from any goroutine — pacing loops poll it
	// without touching the controller mutex.
	rateBits atomic.Uint64

	// mu serializes decisions, SetWeights and Stats on this handle. A
	// decision holds it from begin to settle — on the ReportAsync path
	// across goroutines: taken by the caller, released by the completion on
	// the serving shard.
	mu      sync.Mutex
	alg     *cc.RLRate
	weights objective.Weights
	closed  bool
	tele    telemetry

	// guard is safe mode (nil when built with WithoutSafeMode): it judges
	// every learned decision and owns the fallback controller. fault is the
	// WithInferenceFault hook; timed says whether a decision's policy
	// latency is measured (for the guard's stall verdict and the flight
	// recorder).
	guard *guard
	fault func(act float64) float64
	timed bool

	// client is the handle's inference-engine client (inline without
	// WithServing); it knows which model epoch served each decision.
	// onAct is settleAsync as a func value, built once at registration.
	client *serve.Client
	onAct  func(act float64, more bool)
	// flight is the per-handle decision flight recorder (nil without
	// WithObservability).
	flight *obs.Flight

	// cur is the decision between begin and settle (guarded by mu).
	cur struct {
		st    Status
		rep   cc.Report
		now   time.Time // library clock
		start time.Time // wall clock, set when timed
		done  func(rate float64, err error, more bool)
	}
}

// telemetry accumulates per-application counters (guarded by App.mu).
type telemetry struct {
	registered  time.Time
	lastReport  time.Time
	reports     int64
	sent        float64
	acked       float64
	lost        float64
	duration    time.Duration
	rttWeighted float64 // Σ AvgRTT·Duration (seconds²), for the duration-weighted mean
	rateTime    float64 // Σ rate·Duration (packets), for the mean decided rate
	minRTT      time.Duration
}

// AppStats is a snapshot of an application's cumulative telemetry.
type AppStats struct {
	// Registered and LastReport timestamp the handle's lifecycle (from the
	// library clock; see WithClock).
	Registered time.Time
	LastReport time.Time
	// Reports counts accepted Report calls (= rate decisions made).
	Reports int64
	// PacketsSent / PacketsAcked / PacketsLost are cumulative counts.
	PacketsSent  float64
	PacketsAcked float64
	PacketsLost  float64
	// LossRate is cumulative PacketsLost / PacketsSent.
	LossRate float64
	// Throughput is the cumulative delivery rate (pkts/s) over all
	// reported intervals.
	Throughput float64
	// AvgRTT is the duration-weighted mean of reported interval RTTs;
	// MinRTT is the smallest MinRTT ever reported.
	AvgRTT time.Duration
	MinRTT time.Duration
	// Duration is total reported interval time.
	Duration time.Duration
	// Rate is the current pacing rate (pkts/s); MeanRate is the
	// duration-weighted mean of all decided rates.
	Rate     float64
	MeanRate float64
	// Safe-mode telemetry (all zero when built with WithoutSafeMode):
	// FallbackIntervals counts monitor intervals served by the fallback
	// controller, Fallbacks counts degradation episodes, and
	// FallbackActive reports whether the app is currently degraded.
	FallbackIntervals int64
	Fallbacks         int64
	FallbackActive    bool
	// Faults counts pathological learned decisions the guard detected;
	// LastFault describes the most recent one (empty when none) and
	// LastFaultAt timestamps it (library clock).
	Faults      int64
	LastFault   string
	LastFaultAt time.Time
}

// ID returns the identifier that the §5 compatibility layer (Library.V1)
// uses to address this application.
func (a *App) ID() AppID { return a.id }

// Weights returns the currently applied preference.
func (a *App) Weights() Weights {
	a.mu.Lock()
	w := a.weights
	a.mu.Unlock()
	return Weights{w.Thr, w.Lat, w.Loss}
}

// publishRate stores the rate for lock-free readers.
func (a *App) publishRate(rate float64) { a.rateBits.Store(math.Float64bits(rate)) }

// Rate returns the current pacing rate in packets/second — §5's
// GetSendingRate, as a lock-free read.
func (a *App) Rate() float64 { return math.Float64frombits(a.rateBits.Load()) }

// Report feeds one monitor interval of measurements and returns the pacing
// rate (packets/second) for the next interval: §5's ReportStatus +
// GetSendingRate round trip collapsed into the one call every datapath
// actually makes. It validates the status (negative counts and
// acked+lost > sent are rejected with a descriptive error) and updates the
// handle's telemetry.
//
// Under safe mode (the default) the learned decision is additionally
// validated before it is published: non-finite policy actions, rates
// outside the pacing envelope, stalled inference, and inference panics all
// count as faults, and consecutive faults degrade the application to a
// deterministic AIMD fallback controller until the learned path produces
// clean shadow decisions again. The returned rate is then always finite
// and inside the envelope, and no panic from the inference path escapes
// this call. See SafeModeConfig and AppStats for the trip/recover rules
// and the fault telemetry.
func (a *App) Report(st Status) (float64, error) {
	if err := st.validate(); err != nil {
		return 0, err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return 0, a.errClosed()
	}
	act, panicMsg := a.learned(a.client.Act(a.begin(st)))
	return a.settle(act, panicMsg), nil
}

// ReportAsync is Report for event-driven hosts such as a rate daemon: it
// does not wait for the decision, and done receives what Report would have
// returned. With serving (WithServing) the observation is submitted to the
// handle's shard and done runs on that shard's goroutine, after the batched
// forward pass, the guard verdict and the telemetry update. It runs on the
// calling goroutine instead, before ReportAsync returns, when the status is
// refused, the handle is unregistered or the engine answers at the door
// (closed, or shed) — and always without serving, where the inline engine
// decides on the calling goroutine, so a done that reports again recurses.
//
// more is the serving engine's batch boundary (serve.Client.Submit): true
// only when the shard runs the completion of another decision of the same
// forward pass right after this one. A host that answers decisions over a
// socket may hold the answer while more is true and send what it holds
// when it sees false. Every answer not from a served forward pass passes
// false.
//
// done must not block or panic: on a shard, every decision batched behind
// this one waits for it. It may call ReportAsync on the same handle again.
// The handle stays locked until done is about to run, so a Report,
// ReportAsync, SetWeights or Stats on the same handle waits for the
// decision in flight.
func (a *App) ReportAsync(st Status, done func(rate float64, err error, more bool)) {
	if err := st.validate(); err != nil {
		done(0, err, false)
		return
	}
	a.mu.Lock()
	if a.closed {
		a.mu.Unlock()
		done(0, a.errClosed(), false)
		return
	}
	a.cur.done = done
	a.client.Submit(a.begin(st), a.onAct)
}

// settleAsync is ReportAsync's completion, run by the serving engine with
// the action for the observation begin returned and the engine's more.
func (a *App) settleAsync(act float64, more bool) {
	act, panicMsg := a.learned(act)
	rate := a.settle(act, panicMsg)
	done := a.cur.done
	a.cur.done = nil
	a.mu.Unlock()
	done(rate, nil, more)
}

func (a *App) errClosed() error { return fmt.Errorf("mocc: app %d is unregistered", a.id) }

// begin opens one decision under a.mu: it stamps the clocks, stages the
// status for settle and returns the observation the policy must act on.
func (a *App) begin(st Status) []float64 {
	c := &a.cur
	c.st, c.rep, c.now = st, st.report(), a.lib.clock()
	if a.timed {
		c.start = time.Now()
	}
	return a.alg.Observe(c.rep)
}

// learned finishes the policy step of a decision: the fault hook on the
// engine's action (the engine itself recovers a panicking forward pass into
// NaN). A panic in the hook becomes a NaN action with a verdict instead of
// escaping the decision.
func (a *App) learned(in float64) (act float64, panicMsg string) {
	if a.fault == nil {
		return in, ""
	}
	defer func() {
		if r := recover(); r != nil {
			act, panicMsg = math.NaN(), fmt.Sprintf("inference panic: %v", r)
		}
	}()
	return a.fault(in), ""
}

// settle closes the decision begin opened, still under a.mu: the guard
// judges the action (without safe mode the controller just applies it),
// and the rate is published, recorded and counted.
func (a *App) settle(act float64, panicMsg string) float64 {
	c := &a.cur
	var dur time.Duration
	if a.timed {
		dur = time.Since(c.start)
	}
	var rate float64
	if a.guard != nil {
		rate = a.guard.settle(a.alg, act, dur, panicMsg, c.rep, c.now)
	} else {
		rate = a.alg.Apply(act)
	}
	a.publishRate(rate)
	a.observe(c.now, rate, act, dur)

	st, t := &c.st, &a.tele
	t.reports++
	t.sent += st.PacketsSent
	t.acked += st.PacketsAcked
	t.lost += st.PacketsLost
	t.duration += st.Duration
	d := st.Duration.Seconds()
	t.rttWeighted += st.AvgRTT.Seconds() * d
	t.rateTime += rate * d
	if st.MinRTT > 0 && (t.minRTT == 0 || st.MinRTT < t.minRTT) {
		t.minRTT = st.MinRTT
	}
	t.lastReport = c.now
	return rate
}

// observe records the decision in the handle's flight recorder, adds its
// guard fault, trip or recovery to the library's totals and emits trip/
// recover events. Called under a.mu with the guard state of this decision
// still fresh. The clean path allocates nothing and writes no shared
// counter: the flight store is a ring write, and the rest fires only on a
// fault, trip or recovery.
func (a *App) observe(now time.Time, rate, act float64, dur time.Duration) {
	g := a.guard
	if a.flight != nil {
		var d obs.Decision
		d.TimeNs = now.UnixNano()
		d.Rate = rate
		d.Act = act
		d.LatNs = int64(dur)
		d.Epoch = a.client.LastEpoch()
		if g != nil {
			d.Verdict = g.lastClass
			if d.Verdict == obs.VerdictOK && g.active {
				// Clean shadow probe while degraded: the returned rate
				// came from the fallback controller.
				d.Verdict = obs.VerdictFallback
			}
		}
		a.flight.Record(d)
	}
	if g == nil {
		return
	}
	l := a.lib
	if g.lastClass != obs.VerdictOK {
		l.guardFaults.Add(1)
	}
	if !g.justTripped && !g.justRecovered {
		return
	}
	epoch := a.client.LastEpoch()
	if g.justTripped {
		l.guardTrips.Add(1)
		l.obs.events.Emit(obs.Event{Type: obs.EvSafeModeTrip, App: uint64(a.id),
			Epoch: epoch, Msg: g.lastFault})
	}
	if g.justRecovered {
		l.guardRecoveries.Add(1)
		l.obs.events.Emit(obs.Event{Type: obs.EvSafeModeRecover, App: uint64(a.id),
			Epoch: epoch})
	}
}

// FlightRecord returns the handle's retained recent decisions, oldest
// first (nil when the library was built without WithObservability). It
// is the programmatic form of the /flightrec endpoint: after a canary
// rollback or guard trip, the dump holds the exact decisions that led
// to it.
func (a *App) FlightRecord() []obs.Decision { return a.flight.Dump() }

// SetWeights retunes the application's preference live: the next Report
// evaluates the model under the new weight vector while every other part of
// the controller (rate, feature history, probe state) carries over, so a
// running connection changes objective mid-stream without re-registration.
// The replay pool's reference moves from the old preference to the new one.
func (a *App) SetWeights(w Weights) error {
	iw, err := w.internal()
	if err != nil {
		return fmt.Errorf("mocc: invalid weights: %w", err)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return a.errClosed()
	}
	old := a.weights
	a.weights = iw
	a.client.SetWeights(iw)
	// The pool transfer stays inside a.mu so concurrent SetWeights (or a
	// racing Unregister) can't interleave their Register/Release pairs out
	// of order and strand a refcount. Pool operations are short and take
	// no lock that could reach back into a.mu.
	if old != iw && a.lib.adapter != nil {
		a.lib.adapter.Register(iw)
		a.lib.adapter.Release(old)
	}
	return nil
}

// Stats returns a snapshot of the application's cumulative telemetry.
func (a *App) Stats() AppStats {
	a.mu.Lock()
	defer a.mu.Unlock()
	t := a.tele
	s := AppStats{
		Registered:   t.registered,
		LastReport:   t.lastReport,
		Reports:      t.reports,
		PacketsSent:  t.sent,
		PacketsAcked: t.acked,
		PacketsLost:  t.lost,
		MinRTT:       t.minRTT,
		Duration:     t.duration,
		Rate:         a.Rate(),
	}
	if t.sent > 0 {
		s.LossRate = t.lost / t.sent
	}
	if d := t.duration.Seconds(); d > 0 {
		s.Throughput = t.acked / d
		s.AvgRTT = time.Duration(t.rttWeighted / d * float64(time.Second))
		s.MeanRate = t.rateTime / d
	}
	if g := a.guard; g != nil {
		s.FallbackIntervals = g.fallbackIntervals
		s.Fallbacks = g.fallbacks
		s.FallbackActive = g.active
		s.Faults = g.faults
		s.LastFault = g.lastFault
		s.LastFaultAt = g.lastFaultAt
	}
	return s
}

// lastActivity returns when the handle last did something worth keeping it
// alive for: its last accepted Report, or its registration time when it has
// never reported. The serving janitor compares this against the idle TTL.
func (a *App) lastActivity() time.Time {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.tele.lastReport.IsZero() {
		return a.tele.registered
	}
	return a.tele.lastReport
}

// Unregister removes the application from its library. Subsequent Report
// and SetWeights calls fail; Rate keeps returning the last published value.
// Unregistering the last application holding a preference drops it from the
// online-adaptation replay pool.
func (a *App) Unregister() error { return a.lib.unregister(a) }
