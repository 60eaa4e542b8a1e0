package datapath

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"mocc/internal/cc"
)

func steadyReport(rate, thr, rtt float64) cc.Report {
	d := 0.02
	return cc.Report{
		Duration: d, Sent: rate * d, Delivered: thr * d,
		SendRate: rate, Throughput: thr, AvgRTT: rtt, MinRTT: rtt,
	}
}

func TestModeString(t *testing.T) {
	if UserSpace.String() != "user(udt)" || KernelSpace.String() != "kernel(ccp)" {
		t.Errorf("mode strings: %q, %q", UserSpace.String(), KernelSpace.String())
	}
}

func TestUserSpaceShimInvokesEveryInterval(t *testing.T) {
	s := NewShim(cc.NewCubic(), UserSpace, 0)
	s.Reset(1)
	s.InitialRate(0.04)
	for i := 0; i < 20; i++ {
		s.Update(steadyReport(500, 500, 0.04))
	}
	o := s.Overhead()
	if o.Invocations != 20 {
		t.Errorf("invocations = %d, want 20", o.Invocations)
	}
	if o.Intervals != 20 {
		t.Errorf("intervals = %d, want 20", o.Intervals)
	}
	if o.ControlTime <= 0 {
		t.Error("no control time accounted")
	}
}

func TestKernelShimBatchesReports(t *testing.T) {
	s := NewShim(cc.NewCubic(), KernelSpace, 5)
	s.Reset(1)
	r0 := s.InitialRate(0.04)
	// The first four intervals keep the last rate; the fifth consults the
	// controller.
	for i := 0; i < 4; i++ {
		if got := s.Update(steadyReport(500, 500, 0.04)); got != r0 {
			t.Fatalf("interval %d: rate changed to %v before report boundary", i, got)
		}
	}
	r5 := s.Update(steadyReport(500, 500, 0.04))
	if r5 == r0 {
		t.Error("controller not consulted at report boundary")
	}
	o := s.Overhead()
	if o.Invocations != 1 {
		t.Errorf("invocations = %d, want 1", o.Invocations)
	}
	if o.Intervals != 5 {
		t.Errorf("intervals = %d, want 5", o.Intervals)
	}
}

func TestKernelShimDefaultReportEvery(t *testing.T) {
	s := NewShim(cc.NewCubic(), KernelSpace, 0)
	if s.ReportEvery != 10 {
		t.Errorf("default ReportEvery = %d, want 10", s.ReportEvery)
	}
}

func TestAggregateReports(t *testing.T) {
	rs := []cc.Report{
		{Duration: 0.02, Sent: 10, Delivered: 8, Lost: 2, AvgRTT: 0.040, MinRTT: 0.040},
		{Duration: 0.02, Sent: 10, Delivered: 10, Lost: 0, AvgRTT: 0.060, MinRTT: 0.038},
	}
	agg := aggregateReports(rs)
	if agg.Duration != 0.04 || agg.Sent != 20 || agg.Delivered != 18 || agg.Lost != 2 {
		t.Errorf("sums wrong: %+v", agg)
	}
	// Delivery-weighted RTT: (8*40 + 10*60)/18 = 51.1 ms.
	want := (8*0.040 + 10*0.060) / 18
	if math.Abs(agg.AvgRTT-want) > 1e-9 {
		t.Errorf("AvgRTT = %v, want %v", agg.AvgRTT, want)
	}
	if agg.MinRTT != 0.038 {
		t.Errorf("MinRTT = %v", agg.MinRTT)
	}
	if math.Abs(agg.LossRate-0.1) > 1e-9 {
		t.Errorf("LossRate = %v, want 0.1", agg.LossRate)
	}
	if math.Abs(agg.Throughput-18/0.04) > 1e-9 {
		t.Errorf("Throughput = %v", agg.Throughput)
	}
}

func TestKernelModeReducesCPUShare(t *testing.T) {
	// The same (expensive) controller in kernel mode must consume less
	// control time than in user-space mode for the same traffic.
	expensive := func() cc.Algorithm {
		return cc.NewRLRate("rl", cc.PolicyFunc(func(obs []float64) float64 {
			sum := 0.0
			for i := 0; i < 2000; i++ { // stand-in for NN inference cost
				sum += math.Sqrt(float64(i))
			}
			_ = sum
			return 0
		}), 10)
	}
	user := NewShim(expensive(), UserSpace, 0)
	kern := NewShim(expensive(), KernelSpace, 10)
	for _, s := range []*Shim{user, kern} {
		s.Reset(1)
		s.InitialRate(0.04)
		for i := 0; i < 200; i++ {
			s.Update(steadyReport(500, 500, 0.04))
		}
	}
	uo, ko := user.Overhead(), kern.Overhead()
	if ko.CPUShare >= uo.CPUShare {
		t.Errorf("kernel share %v not below user share %v", ko.CPUShare, uo.CPUShare)
	}
	if ko.Invocations*5 > uo.Invocations {
		t.Errorf("kernel invocations %d vs user %d: batching broken", ko.Invocations, uo.Invocations)
	}
}

func TestMeasureOverheadOrdering(t *testing.T) {
	nnCost := cc.PolicyFunc(func(obs []float64) float64 {
		sum := 0.0
		for i := 0; i < 5000; i++ {
			sum += math.Sqrt(float64(i))
		}
		_ = sum
		return 0
	})
	schemes := []OverheadScheme{
		{Label: "cubic-kernel", Alg: cc.NewCubic(), Mode: KernelSpace},
		{Label: "mocc-udt", Alg: cc.NewRLRate("mocc", nnCost, 10), Mode: UserSpace},
		{Label: "mocc-ccp", Alg: cc.NewRLRate("mocc", nnCost, 10), Mode: KernelSpace},
	}
	cfg := DefaultOverheadConfig()
	cfg.DurationSec = 10
	rows := MeasureOverhead(schemes, cfg)
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	share := map[string]float64{}
	for _, o := range rows {
		share[o.Scheme] = o.CPUShare
	}
	if !(share["mocc-udt"] > share["mocc-ccp"]) {
		t.Errorf("user-space MOCC (%v) should exceed kernel MOCC (%v)",
			share["mocc-udt"], share["mocc-ccp"])
	}
	if !(share["mocc-udt"] > share["cubic-kernel"]) {
		t.Errorf("user-space MOCC (%v) should exceed kernel cubic (%v)",
			share["mocc-udt"], share["cubic-kernel"])
	}
	var buf bytes.Buffer
	if err := WriteOverheadTable(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Figure 17") {
		t.Error("table title missing")
	}
}
