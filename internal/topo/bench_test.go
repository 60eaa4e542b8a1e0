package topo

import (
	"testing"

	"mocc/internal/cc"
	"mocc/internal/netsim"
	"mocc/internal/trace"
)

// BenchmarkTopoIncast10k is the committed scale number: the 10k-flow
// two-tier incast (4 racks + core, 2.5x overload, 2 simulated seconds) end
// to end, setup + run.
func BenchmarkTopoIncast10k(b *testing.B) {
	tp, flows := incastTopology(4, 10_000, 10_000, 2.5, 2)
	var packets int
	for i := 0; i < b.N; i++ {
		e := NewEngine(tp, 7)
		for _, fc := range flows {
			e.AddFlow(fc)
		}
		e.Run(2)
		packets = 0
		for _, f := range e.Flows {
			packets += f.SentTotal
		}
	}
	b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(packets), "pkts/run")
}

// BenchmarkTopoChain runs the benchmark's sim-topo shape (chainScenario) on
// the engine alone, without the scenario layer around it: packets/second of
// simulation throughput and, with -benchmem, the allocations of one whole
// run (setup included).
func BenchmarkTopoChain(b *testing.B) {
	sc := chainScenario()
	b.ReportAllocs()
	var packets int
	for i := 0; i < b.N; i++ {
		packets = 0
		for _, f := range runEngine(sc).Flows {
			packets += f.SentTotal
		}
	}
	b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	b.ReportMetric(float64(packets), "pkts/run")
}

// BenchmarkTopoParkingLot measures steady-state multi-hop forwarding on the
// canonical two-bottleneck chain — per-packet cost with a hop handoff on
// every packet of the long flow, engine vs per-packet reference.
func BenchmarkTopoParkingLot(b *testing.B) {
	links := []LinkConfig{link("left", 5000, 0.01), link("right", 4000, 0.015)}
	flows := []FlowConfig{
		{Alg: &fixedRate{rate: 3500}, Path: []int{0, 1}},
		{Alg: &fixedRate{rate: 2000}, Path: []int{0}},
		{Alg: &fixedRate{rate: 1500}, Path: []int{1}},
	}
	run := func(b *testing.B, mk func(*Topology) interface {
		AddFlow(FlowConfig) *Flow
		Run(float64)
	}) {
		tp, err := New(links)
		if err != nil {
			b.Fatal(err)
		}
		var packets int
		for i := 0; i < b.N; i++ {
			n := mk(tp)
			var fs []*Flow
			for _, fc := range flows {
				fs = append(fs, n.AddFlow(fc))
			}
			n.Run(10)
			packets = 0
			for _, f := range fs {
				packets += f.SentTotal
			}
		}
		b.ReportMetric(float64(packets)/b.Elapsed().Seconds()*float64(b.N), "pkts/s")
	}
	b.Run("engine", func(b *testing.B) {
		run(b, func(tp *Topology) interface {
			AddFlow(FlowConfig) *Flow
			Run(float64)
		} {
			return NewEngine(tp, 1)
		})
	})
	b.Run("reference", func(b *testing.B) {
		run(b, func(tp *Topology) interface {
			AddFlow(FlowConfig) *Flow
			Run(float64)
		} {
			return NewReference(tp, 1)
		})
	})
}

// BenchmarkOneLink is the layer number behind making topo the one
// simulator: the same one-link flows — cubic, bbr and vegas over a
// fixed-rate cross flow — on netsim's packet-train engine and on topo's
// engine over a one-link topology, which TestNetsimBitCompat holds to the
// same bits. The ratio of the two pkts/s is the price of retiring netsim.
func BenchmarkOneLink(b *testing.B) {
	sc := singleLinkScenario{
		link: netsim.LinkConfig{Capacity: trace.Constant(2500), OWD: 0.02, QueuePkts: 100, LossRate: 0.001},
		flows: []netsim.FlowConfig{
			{Alg: cc.NewCubic(), Seed: 1},
			{Alg: cc.NewBBR(), Start: 1, Seed: 2},
			{Alg: cc.NewVegas(), Start: 2, Seed: 3},
			{Alg: &fixedRate{rate: 300}},
		},
		dur:  20,
		seed: 1,
	}
	b.Run("netsim", func(b *testing.B) {
		b.ReportAllocs()
		var packets int
		for range b.N {
			n := netsim.NewNetwork(sc.link, sc.seed)
			for _, fc := range sc.flows {
				n.AddFlow(fc)
			}
			n.Run(sc.dur)
			packets = 0
			for _, f := range n.Flows {
				packets += f.SentTotal
			}
		}
		b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	})
	b.Run("topo", func(b *testing.B) {
		tp, flows := asTopology(b, sc)
		b.ReportAllocs()
		var packets int
		for range b.N {
			e := NewEngine(tp, sc.seed)
			for _, fc := range flows {
				e.AddFlow(fc)
			}
			e.Run(sc.dur)
			packets = 0
			for _, f := range e.Flows {
				packets += f.SentTotal
			}
		}
		b.ReportMetric(float64(packets)*float64(b.N)/b.Elapsed().Seconds(), "pkts/s")
	})
}
