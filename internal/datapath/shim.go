// Package datapath provides the two deployment paths of §5: a UDT-style
// user-space shim where the learned controller runs inline with the
// datapath every monitor interval, and a CCP-style kernel split where the
// datapath aggregates measurements and consults the (out-of-band) controller
// at a much lower frequency. Both speak the paper's three-call library API
// and both implement cc.Algorithm, so any simulator or socket loop can host
// them. The package also defines the UDP wire format (wire.go) that the
// mocc/transport socket loop and the mocc-serve control plane speak.
//
// The Figure 17 CPU-overhead experiment is reproduced by accounting the
// wall-clock time spent inside the controller per simulated second: the
// user-space path invokes model inference every interval (Aurora-like cost),
// while the CCP path batches ReportEvery intervals per invocation, which is
// exactly the decoupling that gives kernel-space MOCC its low overhead.
package datapath

import (
	"math"
	"time"

	"mocc/internal/cc"
)

// Mode selects the deployment style.
type Mode int

const (
	// UserSpace is the UDT-style inline control loop.
	UserSpace Mode = iota
	// KernelSpace is the CCP-style asynchronous control plane.
	KernelSpace
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	if m == KernelSpace {
		return "kernel(ccp)"
	}
	return "user(udt)"
}

// Shim wraps a congestion controller in a deployment mode and accounts the
// control-plane CPU time it consumes.
type Shim struct {
	Alg  cc.Algorithm
	Mode Mode
	// ReportEvery is how many monitor intervals the kernel datapath
	// aggregates before consulting the control plane (CCP's report
	// interval). Ignored in user-space mode.
	ReportEvery int

	controlTime time.Duration
	invocations int
	intervals   int
	simTime     float64

	pending  []cc.Report
	lastRate float64
}

// NewShim wraps alg. For KernelSpace, reportEvery defaults to 10 when <= 1.
func NewShim(alg cc.Algorithm, mode Mode, reportEvery int) *Shim {
	if reportEvery <= 1 {
		reportEvery = 10
	}
	return &Shim{Alg: alg, Mode: mode, ReportEvery: reportEvery}
}

// Name implements cc.Algorithm.
func (s *Shim) Name() string { return s.Alg.Name() + "+" + s.Mode.String() }

// Reset implements cc.Algorithm.
func (s *Shim) Reset(seed int64) {
	s.Alg.Reset(seed)
	s.controlTime = 0
	s.invocations = 0
	s.intervals = 0
	s.simTime = 0
	s.pending = s.pending[:0]
	s.lastRate = 0
}

// InitialRate implements cc.Algorithm.
func (s *Shim) InitialRate(baseRTT float64) float64 {
	s.lastRate = s.Alg.InitialRate(baseRTT)
	return s.lastRate
}

// Update implements cc.Algorithm. In user-space mode every interval invokes
// the controller; in kernel mode intervals are aggregated and the controller
// runs once per ReportEvery intervals.
func (s *Shim) Update(r cc.Report) float64 {
	s.intervals++
	s.simTime += r.Duration
	if s.Mode == UserSpace {
		start := time.Now()
		s.lastRate = s.Alg.Update(r)
		s.controlTime += time.Since(start)
		s.invocations++
		return s.lastRate
	}

	s.pending = append(s.pending, r)
	if len(s.pending) < s.ReportEvery {
		return s.lastRate // datapath keeps the last rate between reports
	}
	agg := aggregateReports(s.pending)
	s.pending = s.pending[:0]
	start := time.Now()
	s.lastRate = s.Alg.Update(agg)
	s.controlTime += time.Since(start)
	s.invocations++
	return s.lastRate
}

// aggregateReports merges consecutive interval reports the way CCP's
// datapath summarizes measurements between control invocations.
func aggregateReports(rs []cc.Report) cc.Report {
	var out cc.Report
	var rttWeighted float64
	minRTT := math.Inf(1)
	for _, r := range rs {
		out.Duration += r.Duration
		out.Sent += r.Sent
		out.Delivered += r.Delivered
		out.Lost += r.Lost
		rttWeighted += r.AvgRTT * math.Max(r.Delivered, 1e-9)
		if r.MinRTT > 0 && r.MinRTT < minRTT {
			minRTT = r.MinRTT
		}
	}
	if out.Duration > 0 {
		out.SendRate = out.Sent / out.Duration
		out.Throughput = out.Delivered / out.Duration
	}
	if out.Delivered > 0 {
		out.AvgRTT = rttWeighted / out.Delivered
	} else if len(rs) > 0 {
		out.AvgRTT = rs[len(rs)-1].AvgRTT
	}
	if !math.IsInf(minRTT, 1) {
		out.MinRTT = minRTT
	}
	if out.Sent > 0 {
		out.LossRate = out.Lost / out.Sent
	}
	return out
}

// Overhead summarizes the control-plane cost of a finished run.
type Overhead struct {
	Scheme string
	Mode   Mode
	// ControlTime is total wall-clock time spent in the controller.
	ControlTime time.Duration
	// Invocations is how many times the controller ran.
	Invocations int
	// Intervals is how many monitor intervals the datapath processed.
	Intervals int
	// SimSeconds is the simulated traffic duration.
	SimSeconds float64
	// CPUShare is control microseconds per simulated second - the
	// relative CPU utilization proxy plotted in Figure 17.
	CPUShare float64
}

// Overhead reports the accumulated accounting.
func (s *Shim) Overhead() Overhead {
	o := Overhead{
		Scheme:      s.Alg.Name(),
		Mode:        s.Mode,
		ControlTime: s.controlTime,
		Invocations: s.invocations,
		Intervals:   s.intervals,
		SimSeconds:  s.simTime,
	}
	if s.simTime > 0 {
		o.CPUShare = float64(s.controlTime.Microseconds()) / s.simTime
	}
	return o
}
