// Command mocc-serve hosts a MOCC library as a shared rate-decision daemon:
// one trained model, one UDP socket, any number of flows. Each flow sends
// report records (its preference plus one monitor interval of
// measurements, see mocc/internal/datapath WireReport) — flows sharing a
// client socket send theirs together, several to a datagram — and gets a
// rate record back; concurrent flows' decisions are coalesced into batched
// forward passes by the serving engine (mocc.WithServing), and the records
// one pass decides for one client socket share one reply datagram.
//
// Usage:
//
//	mocc-serve -addr :9053 -model mocc-model.json
//	mocc-serve -addr :9053 -model mocc-model.json -watch 5s -idle-ttl 1m
//	mocc-serve -addr :9053 -scale quick            # train in process
//	mocc-serve -addr :9053 -state mocc-serve.state # crash-safe restart
//	mocc-serve -addr :9053 -metrics-addr :9090     # scrape endpoints
//
// Flows are registered lazily on their first report, keyed by (source
// address, flow id); an idle flow is evicted after -idle-ttl and simply
// re-registers on its next report. With -watch, the model file is polled
// and every change is hot-swapped into the live shards (Library.Publish)
// after validation; a partially written file is skipped and retried on the
// next poll, so writers should write-then-rename (mocc-train does). Drive
// it with `mocc-bench -serve-addr` for load generation.
//
// Resilience: the daemon sheds decisions under overload (-max-queue,
// -deadline; shed flows keep their previous rate), watches every published
// epoch with a canary that auto-rolls back a model whose fleet fault rate
// spikes (-canary-window, 0 disables), and — with -state — atomically
// snapshots the served model+epoch on every change so a crashed daemon
// restarts exactly where it stopped. Malformed datagrams are counted, never
// fatal (-stats prints all counters).
//
// Observability: -metrics-addr serves /metrics (Prometheus text format),
// /vars (flat JSON), /events (structured event tail: epoch publishes,
// rollbacks, sheds, guard trips), /healthz (canary/overload-aware
// liveness), /flightrec (per-flow decision flight recorder dumps) and
// /debug/pprof/*. The -stats ticker reads the same counters the scrape
// endpoints read, so the two views can never disagree.
package main

import (
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"mocc"
)

// logPrintf is the daemon's default log sink (tests substitute their own).
func logPrintf(format string, args ...any) { log.Printf(format, args...) }

func main() {
	log.SetFlags(0)
	log.SetPrefix("mocc-serve: ")

	var (
		addr        = flag.String("addr", ":9053", "UDP listen address")
		metricsAddr = flag.String("metrics-addr", "", "HTTP observability address serving /metrics, /vars, /events, /healthz, /flightrec and /debug/pprof (empty disables)")
		modelPath   = flag.String("model", "", "model file (mocc-train output); empty trains in process")
		scale       = flag.String("scale", "quick", "in-process training scale when -model is empty: quick | standard")
		seed        = flag.Int64("seed", 1, "in-process training seed")
		shards      = flag.Int("shards", 0, "serving shards (0 = GOMAXPROCS)")
		maxBatch    = flag.Int("max-batch", 0, "max coalesced decisions per forward pass (0 = default 64)")
		maxQueue    = flag.Int("max-queue", 0, "per-shard queue bound, shed beyond it (0 = default 4096, negative = unbounded)")
		deadline    = flag.Duration("deadline", 25*time.Millisecond, "shed decisions queued longer than this (0 disables)")
		idleTTL     = flag.Duration("idle-ttl", time.Minute, "evict flows idle this long (0 disables)")
		watch       = flag.Duration("watch", 0, "poll -model for changes and hot-swap (0 disables)")
		statePath   = flag.String("state", "", "crash-safe snapshot file: persist model+epoch, resume on restart (empty disables)")
		canaryWin   = flag.Duration("canary-window", 3*time.Second, "epoch canary observation window (0 disables auto-rollback)")
		canaryRate  = flag.Float64("canary-fault-rate", 0.05, "fleet fault rate above which a canary epoch is rolled back")
		statsEach   = flag.Duration("stats", 10*time.Second, "print serving/fleet stats this often (0 disables)")
	)
	flag.Parse()

	model, initialEpoch, resumed, err := resolveModel(*statePath, *modelPath, *scale, *seed)
	if err != nil {
		log.Fatal(err)
	}

	cfg := daemonConfig{
		addr:        *addr,
		metricsAddr: *metricsAddr,
		opts: mocc.ServingOptions{
			Shards:   *shards,
			MaxBatch: *maxBatch,
			MaxQueue: *maxQueue,
			Deadline: *deadline,
			IdleTTL:  *idleTTL,
		},
		statePath: *statePath,
		modelPath: *modelPath,
		watch:     *watch,
		statsEach: *statsEach,
	}
	if *canaryWin > 0 {
		cfg.opts.Canary = &mocc.CanaryConfig{
			Window:       *canaryWin,
			MaxFaultRate: *canaryRate,
		}
	}

	d, err := newDaemon(model, initialEpoch, cfg)
	if err != nil {
		log.Fatal(err)
	}
	if resumed {
		log.Printf("resumed epoch %d from %s", initialEpoch, *statePath)
	}
	d.saveState("startup")
	log.Printf("serving on %s (%d shards)", d.srv.Addr(), d.lib.ServingStats().Shards)
	d.start()

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		log.Print("shutting down")
		d.shutdown()
	}()

	d.serve()
	// Covers an external close of the UDP socket too; after a signal this
	// blocks until the handler's shutdown completes (sync.Once), so main
	// never exits mid-teardown.
	d.shutdown()
	d.logStats()
}

// resolveModel picks the serving model and its starting epoch: a readable
// -state snapshot wins (crash-safe resume), then -model, then in-process
// training.
func resolveModel(statePath, modelPath, scale string, seed int64) (m *mocc.Model, epoch uint64, resumed bool, err error) {
	if statePath != "" {
		if _, serr := os.Stat(statePath); serr == nil {
			epoch, m, err = mocc.LoadServingState(statePath)
			if err == nil {
				return m, epoch, true, nil
			}
			// A corrupted snapshot must not keep the daemon down: log and
			// fall through to the model file / training path.
			log.Printf("state: ignoring %s: %v", statePath, err)
		}
	}
	m, err = loadOrTrain(modelPath, scale, seed)
	return m, 0, false, err
}

// loadOrTrain resolves the serving model from a file or in-process training.
func loadOrTrain(path, scale string, seed int64) (*mocc.Model, error) {
	if path != "" {
		log.Printf("loading model %s", path)
		return mocc.LoadModelFile(path)
	}
	opts := mocc.QuickTraining()
	if scale == "standard" {
		opts = mocc.FullTraining()
	}
	opts.Seed = seed
	log.Printf("training %s model in process (seed %d)", scale, seed)
	return mocc.TrainModel(opts)
}

// watchModel polls the model file and hot-swaps every change into the live
// shards, validate-then-publish. A file that fails to load or validate —
// typically a writer caught mid-write — is NOT treated as seen: the mtime
// marker only advances on a successful publish, so the torn read is retried
// on the next poll (by which point an atomic writer has renamed the
// complete file into place). The error is logged once per distinct cause,
// not once per poll.
func watchModel(lib *mocc.Library, path string, every time.Duration, stop chan struct{}, saveState func(string)) {
	var published time.Time
	if fi, err := os.Stat(path); err == nil {
		published = fi.ModTime()
	}
	lastErr := ""
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
		}
		fi, err := os.Stat(path)
		if err != nil || !fi.ModTime().After(published) {
			continue
		}
		m, err := mocc.LoadModelFile(path)
		if err == nil {
			var epoch uint64
			if epoch, err = lib.Publish(m); err == nil {
				published = fi.ModTime()
				lastErr = ""
				log.Printf("hot-swapped %s as epoch %d", path, epoch)
				saveState("hot-swap")
				continue
			}
		}
		// Skip this poll; retry while the file keeps failing. Writers
		// should write to a temp file and rename (mocc-train does), which
		// makes a torn read a one-poll transient.
		if msg := err.Error(); msg != lastErr {
			lastErr = msg
			log.Printf("watch: skipping %s (will retry): %v", path, err)
		}
	}
}
