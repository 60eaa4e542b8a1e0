// Command mocc-train runs MOCC's two-phase offline training (§4.2) and
// writes the trained model to a JSON file consumable by mocc.LoadModel and
// cmd/mocc-bench.
//
// Usage:
//
//	mocc-train -scale quick -out model.json
//	mocc-train -scale full -omega 36 -seed 7 -out mocc-full.json
//	mocc-train -scale standard -workers 8 -out model.json
//	mocc-train -scale full -metrics-addr :9091 -out model.json
//
// With -metrics-addr, a long run can be watched live over HTTP: /metrics
// and /vars expose the mocc_train_* series (iterations, environment
// steps, last-iteration reward, PPO update latency) and /debug/pprof
// profiles the trainer in place.
package main

import (
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"time"

	"mocc"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mocc-train: ")

	var (
		scale   = flag.String("scale", "quick", "training scale: quick | standard | full")
		omega   = flag.Int("omega", 0, "override landmark objective count (0 = scale default)")
		seed    = flag.Int64("seed", 1, "training seed")
		workers = flag.Int("workers", 0, "rollout tasks per iteration (collected in lockstep) + PPO update workers (0 = scale default)")
		out     = flag.String("out", "mocc-model.json", "output model path")
		quiet   = flag.Bool("quiet", false, "suppress progress output")
		metrics = flag.String("metrics-addr", "", "HTTP observability address serving /metrics, /vars and /debug/pprof for the live run (empty disables)")
	)
	flag.Parse()

	var opts mocc.TrainingOptions
	switch *scale {
	case "quick":
		opts = mocc.QuickTraining()
	case "standard":
		opts = mocc.QuickTraining()
		opts.Omega = 10
		opts.BootstrapIters = 12
		opts.BootstrapCycles = 3
		opts.TraverseCycles = 2
		opts.RolloutSteps = 512
		opts.EpisodeLen = 128
	case "full":
		opts = mocc.FullTraining()
	default:
		log.Fatalf("unknown scale %q (want quick, standard or full)", *scale)
	}
	if *omega > 0 {
		opts.Omega = *omega
	}
	if *workers > 0 {
		opts.Workers = *workers
	}
	opts.Seed = *seed
	if !*quiet {
		opts.Progress = func(line string) { log.Print(line) }
	}
	if *metrics != "" {
		sink := mocc.NewMetrics()
		opts.Metrics = sink
		go func() {
			log.Printf("observability on http://%s/metrics", *metrics)
			if err := http.ListenAndServe(*metrics, sink.Handler()); err != nil {
				log.Printf("metrics server: %v", err)
			}
		}()
	}

	start := time.Now()
	model, stats, err := mocc.TrainModelStats(opts)
	if err != nil {
		log.Fatal(err)
	}
	trainTime := time.Since(start)
	if err := model.Save(*out); err != nil {
		log.Fatal(err)
	}

	secs := trainTime.Seconds()
	fmt.Fprintf(os.Stdout, "trained omega=%d seed=%d in %s -> %s\n",
		opts.Omega, opts.Seed, trainTime.Round(time.Millisecond), *out)
	fmt.Fprintf(os.Stdout,
		"throughput: %d iters, %d env steps in %s (%.1f iters/s, %.0f steps/s) workers=%d\n",
		stats.TotalIters(), stats.EnvSteps, trainTime.Round(time.Millisecond),
		float64(stats.TotalIters())/secs, float64(stats.EnvSteps)/secs,
		opts.Workers)
}
