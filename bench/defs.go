package main

import "encoding/json"

// runSeconds is how long one untraced run measures. 22 s gives a serve
// workload 88 windows and a serial one 500–1300 batches to find its floors
// in, and a run takes 24–29 s in all, 25.4 s on average, inside the 30 s
// the driver's budget (114 runs and two builds in 3420 s) leaves each.
const runSeconds = 22

// metricDef is one BENCHMARK.json metric entry. Only end-to-end metrics
// carry a bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// workloadDef is one BENCHMARK.json workload entry plus its runner.
type workloadDef struct {
	Name string
	Why  string
	run  func(*env) error
}

// workloads lists the five workloads in the order the README discusses
// them. Every later performance claim names one of these and one metric
// from endToEnd.
var workloads = []workloadDef{
	{"serve-fleet", "capacity: 4096 flows, 64 reports in flight over one UDP socket; coalescing, demux, per-report allocations and syscalls set ops_per_s", runServeFleet},
	{"serve-sparse", "latency floor: 2 flows, 2 in flight, batching bypassed (avg batch 1); shows the cost of waiting for batches that never form", runServeSparse},
	{"train-adapt", "write side of the model: Library.OnlineAdapt iterations with 4 objectives in the replay pool; gym, rl, nn backward and Adam do the work", runTrainAdapt},
	{"sim-onelink", "packet-train netsim engine through scenario.Run on a one-link v1 spec with cubic, bbr, vegas, mocc and on/off cross traffic", runSimOnelink},
	{"sim-topo", "per-packet multi-link topo engine through scenario.Run on a 3-link v2 spec, Workers pinned to 1; same scenario layer used differently", runSimTopo},
}

// endToEnd are the five user-visible metrics every workload reports on an
// untraced run. The three timing metrics and set-up time carry the widest
// bound the contract allows: the neighbours of this shared machine move
// even a run's fastest batch by up to 30 % between a calm and a busy hour,
// and ten runs taken through a busy one spread up to 7 % on the serial
// workloads and 12 % on latency_p50_ms@serve-fleet, a third to a half of the
// bound (README.md, "Bounds"). alloc_bytes_per_op does not depend on
// machine speed; its 5 % is three times how far packet counts, and with
// them sim-topo's bytes per packet, differ between run seeds (1.5 %).
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher", 0.25},
	{"latency_p50_ms", "ms", "lower", 0.25},
	{"latency_p90_ms", "ms", "lower", 0.25},
	{"alloc_bytes_per_op", "B", "lower", 0.05},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the single-layer metrics of the traced pass, prefixed with
// the module they measure. A layer a workload does not execute reports 0
// on that workload. They carry no bound.
var perLayer = []metricDef{
	{"transport.client_rtt_us", "us", "lower", 0},
	{"transport.client_rtt_p99_us", "us", "lower", 0},
	{"transport.udp_echo_us", "us", "lower", 0},
	{"transport.server_self_us", "us", "lower", 0},
	{"transport.register_us", "us", "lower", 0},
	{"transport.sessions", "count", "higher", 0},
	{"transport.dropped", "count", "lower", 0},
	{"transport.rejected", "count", "lower", 0},
	{"transport.malformed", "count", "lower", 0},
	{"transport.client_timeouts", "count", "lower", 0},
	{"transport.client_fallbacks", "count", "lower", 0},
	{"transport.client_shed", "count", "lower", 0},
	{"transport.client_over_deadline", "count", "lower", 0},

	{"datapath.encode_report_ns", "ns", "lower", 0},
	{"datapath.decode_report_ns", "ns", "lower", 0},
	{"datapath.encode_rate_ns", "ns", "lower", 0},
	{"datapath.decode_rate_ns", "ns", "lower", 0},

	{"mocc.report_us", "us", "lower", 0},
	{"mocc.report_self_us", "us", "lower", 0},
	{"mocc.report_allocs", "count", "lower", 0},
	{"mocc.report_direct_us", "us", "lower", 0},
	{"mocc.register_us", "us", "lower", 0},
	{"mocc.live_heap_kb_per_flow", "KB", "lower", 0},
	{"mocc.publish_us", "us", "lower", 0},
	{"mocc.guard_faults", "count", "lower", 0},
	{"mocc.fallback_active", "count", "lower", 0},

	{"serve.act_us", "us", "lower", 0},
	{"serve.queue_wait_us", "us", "lower", 0},
	{"serve.avg_batch", "count", "higher", 0},
	{"serve.max_batch", "count", "higher", 0},
	{"serve.flush_full_share", "%", "higher", 0},
	{"serve.flush_interval_share", "%", "lower", 0},
	{"serve.flush_eager_share", "%", "higher", 0},
	{"serve.shed_queue", "count", "lower", 0},
	{"serve.shed_deadline", "count", "lower", 0},

	{"core.act_single_ns", "ns", "lower", 0},
	{"core.act_batch1_ns", "ns", "lower", 0},
	{"core.act_batch64_ns_per_sample", "ns", "lower", 0},
	{"core.adapt_iter_ms", "ms", "lower", 0},
	{"core.adapt_publish_us", "us", "lower", 0},
	{"core.offline_iter_ms_w1", "ms", "lower", 0},
	{"core.offline_iter_ms_default", "ms", "lower", 0},
	{"core.adapt_reward_last10", "reward", "higher", 0},

	{"rl.collect_ms", "ms", "lower", 0},
	{"rl.update_ms", "ms", "lower", 0},
	{"rl.collect_share", "%", "lower", 0},
	{"rl.allocs_per_step", "count", "lower", 0},
	{"gym.step_ns", "ns", "lower", 0},
	{"nn.forward_batch64_ns_per_sample", "ns", "lower", 0},
	{"nn.forward_backward_batch64_ns_per_sample", "ns", "lower", 0},
	{"nn.adam_step_us", "us", "lower", 0},
	{"nn.accumulate_us", "us", "lower", 0},

	{"scenario.parse_us", "us", "lower", 0},
	{"scenario.compile_us", "us", "lower", 0},
	{"scenario.summarize_us", "us", "lower", 0},
	{"scenario.pkts_per_run", "count", "higher", 0},

	{"netsim.run_ms", "ms", "lower", 0},
	{"netsim.pkts_per_s", "1/s", "higher", 0},
	{"netsim.allocs_per_kpkt", "count", "lower", 0},
	{"netsim.reference_pkts_per_s", "1/s", "higher", 0},

	{"topo.run_ms", "ms", "lower", 0},
	{"topo.pkts_per_s", "1/s", "higher", 0},
	{"topo.sharded_pkts_per_s", "1/s", "higher", 0},
	{"topo.reference_pkts_per_s", "1/s", "higher", 0},
	{"topo.onelink_pkts_per_s", "1/s", "higher", 0},
	{"topo.incast10k_pkts_per_s", "1/s", "higher", 0},
	{"topo.allocs_per_kpkt", "count", "lower", 0},

	{"cc.update_ns", "ns", "lower", 0},
	{"cc.mis_per_run", "count", "higher", 0},

	{"bench.cpu_us_per_op", "us", "lower", 0},
	{"bench.live_heap_mb", "MB", "lower", 0},
	{"bench.peak_rss_mb", "MB", "lower", 0},
	{"bench.fixture_train_s", "s", "lower", 0},
	{"bench.ops_slice_median", "1/s", "higher", 0},
	{"bench.ops_slice_iqr_pct", "%", "lower", 0},
	{"bench.p50_slice_iqr_pct", "%", "lower", 0},
	{"bench.trace_overhead_pct", "%", "lower", 0},
}

// manifest renders BENCHMARK.json from the tables above, so the committed
// file cannot drift from what the program emits (bench_test.go compares).
func manifest() ([]byte, error) {
	type wl struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}
	doc := struct {
		Command    []string    `json:"command"`
		Paths      []string    `json:"paths"`
		RunSeconds int         `json:"run_seconds"`
		Workloads  []wl        `json:"workloads"`
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}{
		Command:    []string{"go", "run", "./bench"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
		EndToEnd:   endToEnd,
		PerLayer:   perLayer,
	}
	for _, w := range workloads {
		doc.Workloads = append(doc.Workloads, wl{w.Name, w.Why})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}
