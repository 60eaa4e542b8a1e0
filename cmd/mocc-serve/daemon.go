package main

import (
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"

	"mocc"
	"mocc/transport"
)

// daemonConfig is the daemon's flag surface, split from flag parsing so
// tests can run a complete in-process daemon on loopback ports.
type daemonConfig struct {
	addr        string // UDP listen address
	metricsAddr string // HTTP observability address ("" disables)
	opts        mocc.ServingOptions
	statePath   string
	modelPath   string // watched for hot-swaps when watch > 0
	watch       time.Duration
	statsEach   time.Duration
	logf        func(format string, args ...any) // defaults to log.Printf
}

// daemon owns a serving library, its UDP rate server and the observability
// HTTP server, with one strictly ordered shutdown path (see shutdown).
type daemon struct {
	cfg daemonConfig
	met *mocc.Metrics
	lib *mocc.Library
	srv *transport.RateServer

	web     *http.Server
	webLis  net.Listener
	webDone chan struct{}

	stop    chan struct{} // stops the stats ticker and the model watcher
	bg      sync.WaitGroup
	stateMu sync.Mutex

	closeOnce sync.Once
	traceMu   sync.Mutex
	trace     []string // ordered teardown steps, asserted by the shutdown test
}

// newDaemon wires the library, the UDP socket and (when configured) the
// metrics listener. Nothing is served yet — call start then serve.
func newDaemon(model *mocc.Model, initialEpoch uint64, cfg daemonConfig) (*daemon, error) {
	if cfg.logf == nil {
		cfg.logf = logPrintf
	}
	d := &daemon{
		cfg:  cfg,
		met:  mocc.NewMetrics(),
		stop: make(chan struct{}),
	}
	cfg.opts.InitialEpoch = initialEpoch
	if cfg.opts.Canary != nil {
		// The canary monitor runs inside the library; the daemon rides
		// along to log and re-snapshot. Copy the config so the caller's
		// struct is not mutated.
		c := *cfg.opts.Canary
		user := c.OnRollback
		c.OnRollback = func(ev mocc.RollbackEvent) {
			d.cfg.logf("canary: rolled back epoch %d -> %d (%d faults in %d reports)",
				ev.From, ev.To, ev.Faults, ev.Reports)
			d.saveState("canary rollback")
			if user != nil {
				user(ev)
			}
		}
		cfg.opts.Canary = &c
	}
	lib, err := mocc.New(model,
		mocc.WithServing(cfg.opts),
		mocc.WithObservability(mocc.ObservabilityOptions{Metrics: d.met}))
	if err != nil {
		return nil, err
	}
	d.lib = lib

	udpAddr, err := net.ResolveUDPAddr("udp", cfg.addr)
	if err != nil {
		lib.Close()
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		lib.Close()
		return nil, err
	}
	d.srv = transport.NewRateServer(lib, conn)
	d.srv.RegisterMetrics(d.met)

	if cfg.metricsAddr != "" {
		lis, err := net.Listen("tcp", cfg.metricsAddr)
		if err != nil {
			d.srv.Close()
			lib.Close()
			return nil, fmt.Errorf("metrics listener: %w", err)
		}
		d.webLis = lis
		d.web = &http.Server{Handler: lib.Handler()}
		d.webDone = make(chan struct{})
	}
	return d, nil
}

// start launches the background goroutines: the metrics HTTP server, the
// model watcher and the stats ticker.
func (d *daemon) start() {
	if d.web != nil {
		go func() {
			defer close(d.webDone)
			d.web.Serve(d.webLis) // returns on web.Close
		}()
		d.cfg.logf("observability on http://%s/metrics", d.webLis.Addr())
	}
	if d.cfg.watch > 0 && d.cfg.modelPath != "" {
		d.bg.Add(1)
		go func() {
			defer d.bg.Done()
			watchModel(d.lib, d.cfg.modelPath, d.cfg.watch, d.stop, d.saveState)
		}()
	}
	if d.cfg.statsEach > 0 {
		d.bg.Add(1)
		go func() {
			defer d.bg.Done()
			tick := time.NewTicker(d.cfg.statsEach)
			defer tick.Stop()
			for {
				select {
				case <-d.stop:
					return
				case <-tick.C:
					d.logStats()
				}
			}
		}()
	}
}

// serve blocks in the UDP read loop until the socket closes (shutdown, or
// an external close of the conn).
func (d *daemon) serve() { d.srv.Serve() }

// shutdown tears the daemon down in dependency order, exactly once
// (concurrent callers block until the first call completes):
//
//  1. background — stats ticker and model watcher joined, so nothing
//     logs, scrapes or publishes mid-teardown;
//  2. metrics-http — scrape endpoints close before the library state
//     they read goes away;
//  3. rate-server — socket closed, read loop exited and every decision in
//     flight answered: nothing submits to the engine past this point;
//  4. library — canary monitor and idle janitor joined, serving engine
//     drained and closed;
//  5. state — final crash-safe snapshot of the served model + epoch.
func (d *daemon) shutdown() {
	d.closeOnce.Do(func() {
		close(d.stop)
		d.bg.Wait()
		d.step("background")
		if d.web != nil {
			d.web.Close()
			<-d.webDone
			d.step("metrics-http")
		}
		d.srv.Close()
		d.step("rate-server")
		d.lib.Close()
		d.step("library")
		d.saveState("shutdown")
		d.step("state")
	})
}

// step records one completed teardown stage.
func (d *daemon) step(name string) {
	d.traceMu.Lock()
	d.trace = append(d.trace, name)
	d.traceMu.Unlock()
}

// shutdownTrace returns the teardown stages completed so far, in order.
func (d *daemon) shutdownTrace() []string {
	d.traceMu.Lock()
	defer d.traceMu.Unlock()
	return append([]string(nil), d.trace...)
}

// saveState atomically snapshots the served model + epoch (no-op without
// -state). Serialized so the watcher, the canary and shutdown cannot
// interleave half-written snapshots.
func (d *daemon) saveState(reason string) {
	if d.cfg.statePath == "" {
		return
	}
	d.stateMu.Lock()
	defer d.stateMu.Unlock()
	if err := mocc.SaveServingState(d.cfg.statePath, d.lib.Epoch(), d.lib.Model()); err != nil {
		d.cfg.logf("state: %v", err)
		return
	}
	d.cfg.logf("state: snapshotted epoch %d (%s)", d.lib.Epoch(), reason)
}

// logStats prints the one-line serving/fleet summary. It reads the same
// atomics the /metrics CounterFuncs read at scrape time, so the ticker
// and the Prometheus endpoint can never disagree.
func (d *daemon) logStats() {
	st := d.lib.ServingStats()
	fl := d.lib.FleetStats()
	ds := d.srv.Stats()
	avg := 0.0
	if st.Batches > 0 {
		avg = float64(st.Reports) / float64(st.Batches)
	}
	d.cfg.logf("epoch %d | flows %d | reports %d (batches %d, avg %.1f, max %d) | shed %d (queue %d deadline %d, queued %d) | rollbacks %d panics %d restarts %d | report datagrams %d | replies %d (datagrams %d) dropped %d rejected %d malformed %d foreign %d invalid %d | evicted %d | fleet thr %.0f pkts/s loss %.3f degraded %d",
		st.Epoch, fl.Apps, st.Reports, st.Batches, avg, st.MaxBatch,
		st.Shed(), st.ShedQueue, st.ShedDeadline, st.Queued,
		st.Rollbacks, st.Panics, st.Restarts,
		ds.ReportDatagrams, ds.Replies, ds.ReplyDatagrams, ds.Dropped, ds.Rejected, ds.Malformed, ds.Foreign, ds.Invalid,
		st.Evicted, fl.Throughput, fl.LossRate, fl.FallbackActive)
}
