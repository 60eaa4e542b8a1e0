package mocc

import (
	"fmt"
	"io"
	"net/http"

	"mocc/internal/obs"
)

// Metrics is the observability sink shared by a Library and everything
// wired around it (transports, the training loop, CLIs): one metric
// registry plus one structured event log. Construct it with NewMetrics,
// hand it to WithObservability, and serve it with Library.Handler (or
// Metrics.Handler for non-library components):
//
//	m := mocc.NewMetrics()
//	lib, _ := mocc.New(model, mocc.WithServing(sopts), mocc.WithObservability(m))
//	http.ListenAndServe(":9090", lib.Handler())
//
// The exposed endpoints are /metrics (Prometheus text format), /vars
// (flat expvar-style JSON), /events (structured event tail), /healthz
// (canary/overload-aware liveness), /flightrec (per-app decision dumps,
// library handler only) and /debug/pprof/*.
type Metrics struct {
	reg    *obs.Registry
	events *obs.EventLog
}

// NewMetrics returns an empty observability sink (metric registry +
// 256-event ring).
func NewMetrics() *Metrics {
	return &Metrics{reg: obs.NewRegistry(), events: obs.NewEventLog(0)}
}

// Registry exposes the underlying metric registry so in-module
// components (transport, internal CLIs) can register their own series.
// External consumers use the HTTP endpoints instead.
func (m *Metrics) Registry() *obs.Registry {
	if m == nil {
		return nil
	}
	return m.reg
}

// EventLog exposes the underlying event log for in-module emitters and
// subscribers. External consumers use /events.
func (m *Metrics) EventLog() *obs.EventLog {
	if m == nil {
		return nil
	}
	return m.events
}

// WritePrometheus renders every registered series in the Prometheus
// text exposition format.
func (m *Metrics) WritePrometheus(w io.Writer) { m.Registry().WritePrometheus(w) }

// Handler serves /metrics, /vars, /events and /debug/pprof/* for a
// standalone Metrics (no library attached — e.g. the training CLI).
// Libraries should prefer Library.Handler, which adds /healthz and
// /flightrec.
func (m *Metrics) Handler() http.Handler {
	return obs.NewHandler(obs.HandlerConfig{
		Registry: m.Registry(),
		Events:   m.EventLog(),
		Pprof:    true,
	})
}

// ObservabilityOptions configures WithObservability. Zero fields keep
// their defaults.
type ObservabilityOptions struct {
	// Metrics is the sink to wire the library into (required; see
	// NewMetrics). One sink serves one library, plus its RateServer and
	// ServeConn: a series is registered once, and reads the component
	// that registered it first.
	Metrics *Metrics
	// FlightDepth is how many recent decisions each handle's flight
	// recorder retains for post-morteming a rollback or guard trip
	// (default 64; negative disables the recorders).
	FlightDepth int
}

// WithObservability attaches a Metrics sink to the library: engine,
// safe-mode and canary series register on it, structured events (epoch
// publishes, rollbacks, sheds, guard trips/recoveries, shard restarts)
// flow into its event log, and every handle gets a decision flight
// recorder. The hot-path cost is one histogram observation plus one
// flight-ring store per Report (~tens of ns, allocation-free); without
// this option the instrumented paths are true no-ops.
func WithObservability(o ObservabilityOptions) Option {
	return func(c *libConfig) { c.observability = &o }
}

// libObs is the library's resolved observability state (all fields nil
// or zero when WithObservability was not given — every use is nil-safe).
type libObs struct {
	sink        *Metrics
	events      *obs.EventLog
	flightDepth int // 0 disables the per-handle recorders

	publishes       *obs.Counter // mocc_epoch_publishes_total
	canaryRollbacks *obs.Counter // mocc_canary_rollbacks_total
}

// initObs resolves ObservabilityOptions into the library's obs state and
// registers the library-level series.
func (l *Library) initObs(o *ObservabilityOptions) {
	if o == nil || o.Metrics == nil {
		return
	}
	l.obs.sink = o.Metrics
	l.obs.events = o.Metrics.events
	switch {
	case o.FlightDepth < 0:
		l.obs.flightDepth = 0
	case o.FlightDepth == 0:
		l.obs.flightDepth = 64
	default:
		l.obs.flightDepth = o.FlightDepth
	}
	reg := o.Metrics.reg
	reg.CounterFunc("mocc_safemode_faults_total",
		"Pathological learned decisions detected by the safe-mode guard.", l.guardFaults.Load)
	reg.CounterFunc("mocc_safemode_trips_total",
		"Guard trips: handles degraded to the fallback controller.", l.guardTrips.Load)
	reg.CounterFunc("mocc_safemode_recoveries_total",
		"Guard recoveries: handles resuming the learned path.", l.guardRecoveries.Load)
	l.obs.publishes = reg.Counter("mocc_epoch_publishes_total",
		"Model generations published via Library.Publish.")
	l.obs.canaryRollbacks = reg.Counter("mocc_canary_rollbacks_total",
		"Automatic epoch rollbacks decided by the canary.")
	reg.GaugeFunc("mocc_fleet_apps", "Currently registered application handles.",
		func() float64 { return float64(l.Apps()) })
	reg.GaugeFunc("mocc_fleet_degraded", "Handles currently served by the fallback controller.",
		func() float64 { return float64(l.FleetStats().FallbackActive) })
}

// Handler returns the library's observability endpoints: /metrics,
// /vars, /events, /healthz, /flightrec and /debug/pprof/*. It requires
// WithObservability; without it every path answers 404.
func (l *Library) Handler() http.Handler {
	if l.obs.sink == nil {
		return http.NotFoundHandler()
	}
	return obs.NewHandler(obs.HandlerConfig{
		Registry: l.obs.sink.reg,
		Events:   l.obs.events,
		Health:   l.health,
		Flight: func(id uint64) ([]obs.Decision, bool) {
			a, ok := l.App(AppID(id))
			if !ok || a.flight == nil {
				return nil, false
			}
			return a.flight.Dump(), true
		},
		FlightIndex: func() []uint64 {
			ids := []uint64{} // "apps": [] rather than null
			for _, a := range l.handles() {
				if a.flight != nil {
					ids = append(ids, uint64(a.id))
				}
			}
			return ids
		},
		Pprof: true,
	})
}

// health is the /healthz probe: unhealthy (503) once the library is
// closed or when a majority of the fleet is degraded to fallback
// controllers; the detail fields surface the canary/overload state
// either way.
func (l *Library) health() (bool, map[string]any) {
	st := l.ServingStats()
	f := l.FleetStats()
	detail := map[string]any{
		"epoch":            st.Epoch,
		"apps":             f.Apps,
		"degraded":         f.FallbackActive,
		"queued":           st.Queued,
		"shed":             st.Shed(),
		"rollbacks":        st.Rollbacks,
		"canary_rollbacks": l.obs.canaryRollbacks.Value(),
	}
	ok := true
	switch {
	case l.closed.Load():
		detail["reason"] = "library closed"
		ok = false
	case f.Apps > 0 && f.FallbackActive*2 > f.Apps:
		detail["reason"] = fmt.Sprintf("%d/%d handles degraded to fallback", f.FallbackActive, f.Apps)
		ok = false
	}
	return ok, detail
}
