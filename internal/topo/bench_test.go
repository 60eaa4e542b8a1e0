package topo

import "testing"

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
