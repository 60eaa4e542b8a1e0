GO ?= go

.PHONY: all build vet test test-race chaos chaos-serve obs bench bench-micro fuzz-scen fuzz-nn fuzz-serve ci

all: build vet test

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# Race detector over the concurrency-bearing packages: the shard-parallel
# public API (root + transport), the serving engine's batching shards,
# the pantheon scenario scheduler, the data-parallel PPO update, and the
# pools that recycle gym's environments and TrainingEnvs' random streams
# across every goroutine that collects (gym, core).
# (The simulators and rollout collection are not concurrent: netsim, topo
# and rl's lockstep collector run on one goroutine.)
test-race:
	$(GO) test -race . ./transport ./internal/faults ./internal/gym ./internal/rl ./internal/core ./internal/pantheon ./internal/serve ./internal/obs

# Seeded chaos suite: the fault-injection package (bit-reproducible
# same-seed plans, every wire/report/inference injector), safe-mode
# trip/fallback/recovery on the handle hot path, and the hardened
# transport over real loopback sockets (receiver killed mid-send,
# sequence-window blackouts, corrupted acks, NaN-poisoned inference, the
# Send pacing-rate contract, in-flight eviction, receiver loss and acks).
chaos:
	$(GO) test -short -count=1 ./internal/faults
	$(GO) test -short -count=1 -run 'SafeMode|OnlineAdapt|LoadModelFile|SaveLoad' .
	$(GO) test -short -count=1 -run 'Chaos|Blackout|Send|UDPTransfer|Receiver' ./transport

# Serving-resilience chaos suite: engine overload shedding (queue bound +
# decision deadline), shard panic watchdog, epoch canary auto-rollback on a
# finite-but-poisoned publish, crash-safe state snapshots, daemon demux
# hardening against malformed datagrams (plus the demux fuzz seeds), the
# daemon's per-flow order and drop, its bit-identity to a shadow library,
# its flat session table, zero-alloc round trip, per-batch reply coalescing
# and its walk of coalesced report records (plus the client demux fuzz
# seeds), the client's report combining and its failed-write fan-out, the
# client's deadline sweep (a timeout fires within a quarter Timeout of its
# deadline against a daemon that never answers, a shorter Timeout reaches a
# reader parked on a longer one, stale replies neither end a wait nor keep
# the sweep or Close from ending it), and client failover across a daemon
# killed and restarted mid-load (seeded fault plans, zero Report errors end
# to end).
chaos-serve:
	$(GO) test -short -count=1 -run 'Overload|Shed|QueueBound|Panic|Watchdog|Rollback|Canary|BaseEpoch' ./internal/serve
	$(GO) test -short -count=1 -run 'Rollback|Canary|ServingState|EvictionChurn' .
	$(GO) test -short -count=1 -run 'RateServer|ServeFlow|ServeConn|Failover|Restart|Malformed' ./transport

# Observability smoke: boot the complete daemon in-process (UDP rate server
# + -metrics-addr HTTP exposition + stats ticker + canary), drive real flows
# through it, scrape /metrics and /healthz asserting the key series, and
# tear down in strict dependency order; then the internal/obs unit suite
# (zero-alloc pins, exposition formats), the root-level chaos/scrape pins
# (flight recorder across a canary rollback, concurrent scrape churn) and
# the client scrape pin (every mocc_client_* counter equals its
# ServeFlowStats sum across a daemon restart).
obs:
	$(GO) test -count=1 -run 'TestDaemon' ./cmd/mocc-serve
	$(GO) test -count=1 ./internal/obs
	$(GO) test -count=1 -run 'TestObs|TestLibraryHealthz|TestHandler' .
	$(GO) test -count=1 -run 'TestServeConnClientSeries' ./transport

# The repository benchmark (bench/, manifest BENCHMARK.json): one process
# per workload, ~25 s each, the last output line is the JSON result.
bench:
	for w in serve-fleet serve-sparse train-adapt sim-onelink sim-topo; do \
		$(GO) run ./bench -workload $$w || exit 1; \
	done

# Go micro-benchmarks for measuring while working on one layer: NN/PPO hot
# path and the training loop serial vs data-parallel (nn, rl, core), the
# netsim packet-train engine vs its per-packet reference, the multi-link
# topo engine on its own (the sim-topo shape without the scenario layer,
# the parking lot against the reference, the 10k-flow incast), the
# pantheon sweep scheduler, and the serve client in the serve-fleet shape
# (64 goroutines over 4096 flows on loopback). Run with -count for
# stability.
bench-micro:
	$(GO) test -run '^$$' -bench . -benchmem ./internal/nn ./internal/rl ./internal/core
	$(GO) test -run '^$$' -bench 'Engine' -benchmem ./internal/netsim
	$(GO) test -run '^$$' -bench 'Topo|OneLink' -benchmem ./internal/topo
	$(GO) test -run '^$$' -bench 'RunSweep' -benchmem ./internal/pantheon
	$(GO) test -run '^$$' -bench 'ServeConnReport' -benchmem ./transport

# Differential fuzz smoke: 25 generator-seeded scenarios replayed through
# both netsim engines (packet-train vs per-packet reference), then 25 more
# from the three topology families (parking-lot, incast-10k, chain) through
# both topo engines (per-link packet trains and per-flow delivery inboxes vs
# per-packet reference) under each of two seeds — the second because the
# inboxes' drain points sit on the chain family's bulk budgets and
# staggered stops, which one seed's 25 draws cover thinly. Every pair must
# agree bit-for-bit AND satisfy the engine-independent physical invariants
# (packet conservation, RTT ≥ path propagation, per-link throughput ≤
# capacity). Runs in a few seconds including the build.
fuzz-scen:
	$(GO) run ./cmd/mocc-scen fuzz -n 25 -seed 1
	$(GO) run ./cmd/mocc-scen fuzz -topo -n 25 -seed 1
	$(GO) run ./cmd/mocc-scen fuzz -topo -n 25 -seed 2

# Kernel fuzz smoke, ten seconds per target (go test -fuzz takes one target
# per run): FuzzEvaluatorForwardBatch checks every row of both batched
# forwards (serving's Evaluator and training's MLP.ForwardBatch) bit for bit
# against MLP.Forward on that row, over random shapes, batch sizes, biases
# and special-value inputs; FuzzElementwiseKernels checks the tanh forward,
# the tanh backward and Adam's update bit for bit against their Go loops on
# arbitrary float64s; FuzzLinearKernels checks the n = 1 forward's
# output-lane kernel against linearRow1Asm and the backward's
# four-destination kernel against axpyRows, on arbitrary float64s and
# shapes.
fuzz-nn:
	$(GO) test -run '^$$' -fuzz FuzzEvaluatorForwardBatch -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzElementwiseKernels -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzLinearKernels -fuzztime 10s ./internal/nn

# Serve demux fuzz smoke, ten seconds per target: FuzzServeConnReplies feeds
# arbitrary reply datagrams to the client's demux (each whole valid rate
# record reaches its own flow, in order; a bad tail counts one Malformed),
# FuzzRateServerDatagram arbitrary report datagrams to the daemon's.
fuzz-serve:
	$(GO) test -run '^$$' -fuzz FuzzServeConnReplies -fuzztime 10s ./transport
	$(GO) test -run '^$$' -fuzz FuzzRateServerDatagram -fuzztime 10s ./transport

ci: all
