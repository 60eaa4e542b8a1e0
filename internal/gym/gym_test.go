package gym

import (
	"math"
	"testing"
	"testing/quick"

	"mocc/internal/trace"
)

// testConfig is a small, fast link: 1000 pkts/s (12 Mbps at 1500B), 20 ms
// one-way delay, 100-packet buffer.
func testConfig() Config {
	return Config{
		Bandwidth:  trace.Constant(1000),
		LatencyMs:  20,
		QueuePkts:  100,
		HistoryLen: 4,
		Seed:       1,
	}
}

func TestNewPanicsWithoutBandwidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for nil Bandwidth")
		}
	}()
	New(Config{})
}

func TestDefaults(t *testing.T) {
	e := New(testConfig())
	cfg := e.Config()
	if cfg.MIms != 40 { // one base RTT = 2*20ms
		t.Errorf("default MI = %v ms, want 40", cfg.MIms)
	}
	if cfg.MinRate <= 0 || cfg.MaxRate <= cfg.MinRate {
		t.Errorf("bad rate bounds: [%v, %v]", cfg.MinRate, cfg.MaxRate)
	}
	if e.ObsSize() != 12 {
		t.Errorf("ObsSize = %d, want 12", e.ObsSize())
	}
}

func TestInitialRateRandomizedButBounded(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		cfg := testConfig()
		cfg.Seed = seed
		e := New(cfg)
		r := e.Rate()
		if r < 0.3*1000-1 || r > 1.5*1000+1 {
			t.Errorf("seed %d: initial rate %v outside 0.3-1.5x capacity", seed, r)
		}
	}
}

func TestStartRateOverride(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 500
	e := New(cfg)
	if e.Rate() != 500 {
		t.Errorf("StartRate not honored: %v", e.Rate())
	}
}

func TestStepConservation(t *testing.T) {
	// Invariant: sent = delivered + lost + queue growth, every MI.
	cfg := testConfig()
	cfg.StartRate = 1500 // overdriving the link to exercise drops
	cfg.LossRate = 0.02
	e := New(cfg)
	prevQueue := 0.0
	for i := 0; i < 200; i++ {
		m := e.Step()
		got := m.Delivered + m.Lost + (m.Queue - prevQueue)
		if math.Abs(got-m.Sent) > 1e-6*(1+m.Sent) {
			t.Fatalf("MI %d: conservation violated: sent %v vs accounted %v", i, m.Sent, got)
		}
		prevQueue = m.Queue
	}
}

func TestStepConservationProperty(t *testing.T) {
	f := func(rateSeed uint8, lossSeed uint8) bool {
		cfg := testConfig()
		cfg.StartRate = 100 + float64(rateSeed)*10
		cfg.LossRate = float64(lossSeed%10) / 100
		e := New(cfg)
		prevQueue := 0.0
		for i := 0; i < 50; i++ {
			m := e.Step()
			if m.Delivered < 0 || m.Lost < 0 || m.Queue < 0 {
				return false
			}
			if m.Queue > float64(cfg.QueuePkts)+1e-9 {
				return false
			}
			got := m.Delivered + m.Lost + (m.Queue - prevQueue)
			if math.Abs(got-m.Sent) > 1e-6*(1+m.Sent) {
				return false
			}
			prevQueue = m.Queue
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestUnderloadNoQueueNoLoss(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 400 // well under 1000 pkts/s capacity
	e := New(cfg)
	for i := 0; i < 50; i++ {
		m := e.Step()
		if m.Queue != 0 {
			t.Fatalf("queue built up under light load: %v", m.Queue)
		}
		if m.LossRate != 0 {
			t.Fatalf("loss under light load: %v", m.LossRate)
		}
		if math.Abs(m.AvgRTT-m.BaseRTT) > 1e-9 {
			t.Fatalf("RTT inflated without queueing: %v vs %v", m.AvgRTT, m.BaseRTT)
		}
		if math.Abs(m.Throughput-400) > 1 {
			t.Fatalf("throughput %v, want ~400", m.Throughput)
		}
	}
}

func TestOverloadFillsQueueThenDrops(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 2000 // 2x capacity
	e := New(cfg)
	var sawFullQueue, sawCongestiveLoss bool
	for i := 0; i < 100; i++ {
		m := e.Step()
		if m.Queue >= float64(cfg.QueuePkts)-1e-9 {
			sawFullQueue = true
		}
		if sawFullQueue && m.LossRate > 0 {
			sawCongestiveLoss = true
		}
		// Delivered can never exceed capacity for the interval.
		if m.Throughput > m.Capacity+1e-9 {
			t.Fatalf("throughput %v exceeds capacity %v", m.Throughput, m.Capacity)
		}
	}
	if !sawFullQueue {
		t.Error("overload never filled the queue")
	}
	if !sawCongestiveLoss {
		t.Error("overload never caused congestive loss")
	}
}

func TestQueueingInflatesRTT(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 1500
	e := New(cfg)
	var last Metrics
	for i := 0; i < 20; i++ {
		last = e.Step()
	}
	if last.AvgRTT <= last.BaseRTT {
		t.Errorf("persistent overload should inflate RTT: %v vs base %v", last.AvgRTT, last.BaseRTT)
	}
	wantMax := last.BaseRTT + float64(cfg.QueuePkts)/1000
	if last.AvgRTT > wantMax+1e-9 {
		t.Errorf("RTT %v exceeds base+max queueing %v", last.AvgRTT, wantMax)
	}
}

func TestRandomLossApplied(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 500
	cfg.LossRate = 0.05
	e := New(cfg)
	m := e.Step()
	if math.Abs(m.LossRate-0.05) > 1e-9 {
		t.Errorf("observed loss %v, want 0.05", m.LossRate)
	}
}

func TestApplyActionEquationOne(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 1000
	e := New(cfg)
	// a > 0: multiply by (1 + alpha*a).
	got := e.ApplyAction(1)
	want := 1000 * (1 + ActionScale)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ApplyAction(1) = %v, want %v", got, want)
	}
	// a < 0: divide by (1 - alpha*a).
	e.SetRate(1000)
	got = e.ApplyAction(-1)
	want = 1000 / (1 + ActionScale)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("ApplyAction(-1) = %v, want %v", got, want)
	}
	// a = 0: unchanged.
	e.SetRate(777)
	if got := e.ApplyAction(0); got != 777 {
		t.Errorf("ApplyAction(0) = %v, want 777", got)
	}
}

func TestApplyActionSymmetry(t *testing.T) {
	// Equation 1 makes +a then -a return to the original rate.
	f := func(a float64) bool {
		a = math.Mod(math.Abs(a), 3)
		cfg := testConfig()
		cfg.StartRate = 800
		e := New(cfg)
		e.ApplyAction(a)
		e.ApplyAction(-a)
		return math.Abs(e.Rate()-800) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestRateClamping(t *testing.T) {
	cfg := testConfig()
	cfg.MinRate = 100
	cfg.MaxRate = 2000
	cfg.StartRate = 1000
	e := New(cfg)
	e.SetRate(1e9)
	if e.Rate() != 2000 {
		t.Errorf("rate not clamped to max: %v", e.Rate())
	}
	e.SetRate(0)
	if e.Rate() != 100 {
		t.Errorf("rate not clamped to min: %v", e.Rate())
	}
}

func TestObservationShapeAndShift(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 400
	e := New(cfg)
	obs := e.Observation()
	if len(obs) != 12 {
		t.Fatalf("obs len = %d, want 12", len(obs))
	}
	// Fresh history: sendRatio-1 = 0, latencyRatio-1 = 0, grad = 0.
	for i, v := range obs {
		if v != 0 {
			t.Errorf("fresh obs[%d] = %v, want 0", i, v)
		}
	}
	e.Step()
	obs1 := e.Observation()
	e.Step()
	obs2 := e.Observation()
	// History slides: the last triple of obs1 becomes second-to-last of obs2.
	for k := 0; k < 3; k++ {
		if obs1[9+k] != obs2[6+k] {
			t.Errorf("history did not slide at offset %d", k)
		}
	}
}

func TestLatencyRatioAndGradientReactToCongestion(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 1800
	e := New(cfg)
	e.Step()
	e.Step()
	obs := e.Observation()
	n := len(obs)
	latRatioFeature := obs[n-2] // latencyRatio - 1
	grad := obs[n-1]
	if latRatioFeature <= 0 {
		t.Errorf("latency ratio feature %v should be positive under congestion", latRatioFeature)
	}
	if grad <= 0 {
		t.Errorf("latency gradient %v should be positive while queue grows", grad)
	}
}

func TestEpisodeTermination(t *testing.T) {
	cfg := testConfig()
	cfg.MaxSteps = 5
	e := New(cfg)
	for i := 0; i < 5; i++ {
		if e.Done() {
			t.Fatalf("done after %d steps", i)
		}
		e.Step()
	}
	if !e.Done() {
		t.Error("not done after MaxSteps")
	}
	e.Reset()
	if e.Done() || e.Steps() != 0 || e.Time() != 0 {
		t.Error("Reset did not clear episode state")
	}
}

func TestVaryingBandwidthTrace(t *testing.T) {
	cfg := testConfig()
	cfg.Bandwidth = trace.Step{Low: 500, High: 1000, Period: 1}
	cfg.StartRate = 2000
	e := New(cfg)
	caps := map[float64]bool{}
	for i := 0; i < 100; i++ {
		m := e.Step()
		caps[m.Capacity] = true
	}
	if !caps[500] || !caps[1000] {
		t.Errorf("capacity trace not applied: saw %v", caps)
	}
}

func TestCrossTrafficSharesLink(t *testing.T) {
	// With 50% non-reactive cross traffic, an agent offering full link
	// rate gets roughly its proportional share and sees queueing.
	cfg := testConfig()
	cfg.StartRate = 1000
	cfg.CrossTraffic = trace.Constant(1000)
	e := New(cfg)
	var last Metrics
	for i := 0; i < 50; i++ {
		last = e.Step()
	}
	// Agent share is 1000/(1000+1000) = 0.5 of the 1000 pkts/s capacity.
	if last.Throughput < 400 || last.Throughput > 600 {
		t.Errorf("agent throughput %v, want ~500 (half share)", last.Throughput)
	}
	if last.AvgRTT <= last.BaseRTT {
		t.Error("combined overload should inflate RTT")
	}
	if last.LossRate <= 0 {
		t.Error("combined overload should cause drops")
	}
}

func TestCrossTrafficZeroMatchesBaseline(t *testing.T) {
	// CrossTraffic = constant 0 must be byte-identical to no cross traffic.
	a := New(testConfig())
	cfgB := testConfig()
	cfgB.CrossTraffic = trace.Constant(0)
	b := New(cfgB)
	a.SetRate(1500)
	b.SetRate(1500)
	for i := 0; i < 30; i++ {
		ma := a.Step()
		mb := b.Step()
		if ma != mb {
			t.Fatalf("step %d: metrics diverge with zero cross traffic", i)
		}
	}
}

func TestRewardTerms(t *testing.T) {
	m := Metrics{Throughput: 800, Capacity: 1000, AvgRTT: 0.05, BaseRTT: 0.04, LossRate: 0.1}
	oThr, oLat, oLoss := RewardTerms(m)
	if math.Abs(oThr-0.8) > 1e-9 {
		t.Errorf("oThr = %v, want 0.8", oThr)
	}
	if math.Abs(oLat-0.8) > 1e-9 {
		t.Errorf("oLat = %v, want 0.8", oLat)
	}
	if math.Abs(oLoss-0.9) > 1e-9 {
		t.Errorf("oLoss = %v, want 0.9", oLoss)
	}
	// All terms clamped to [0, 1].
	oThr, oLat, oLoss = RewardTerms(Metrics{Throughput: 2000, Capacity: 1000, AvgRTT: 0.01, BaseRTT: 0.04, LossRate: -1})
	if oThr != 1 || oLat != 1 || oLoss != 1 {
		t.Errorf("clamping failed: %v %v %v", oThr, oLat, oLoss)
	}
}

func TestEstimates(t *testing.T) {
	cfg := testConfig()
	cfg.StartRate = 900
	e := New(cfg)
	for i := 0; i < 20; i++ {
		e.Step()
	}
	if est := e.EstimatedCapacity(); math.Abs(est-900) > 1 {
		t.Errorf("capacity estimate %v, want ~900 (max observed throughput)", est)
	}
	if est := e.EstimatedBaseRTT(); math.Abs(est-0.04) > 1e-9 {
		t.Errorf("base RTT estimate %v, want 0.04", est)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []float64 {
		cfg := testConfig()
		cfg.LossRate = 0.01
		e := New(cfg)
		var out []float64
		for i := 0; i < 30; i++ {
			e.ApplyAction(math.Sin(float64(i)))
			m := e.Step()
			out = append(out, m.Throughput, m.AvgRTT, m.LossRate)
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFromCondition(t *testing.T) {
	c := trace.Condition{BandwidthMbps: 12, LatencyMs: 30, QueuePkts: 500, LossRate: 0.01}
	cfg := FromCondition(c, 1500, 42)
	if got := cfg.Bandwidth.At(0); math.Abs(got-1000) > 1e-9 {
		t.Errorf("bandwidth = %v pkts/s, want 1000", got)
	}
	if cfg.LatencyMs != 30 || cfg.QueuePkts != 500 || cfg.LossRate != 0.01 {
		t.Errorf("condition not carried over: %+v", cfg)
	}
	if cfg.HistoryLen != DefaultHistoryLen {
		t.Errorf("history len = %d, want %d", cfg.HistoryLen, DefaultHistoryLen)
	}
}
