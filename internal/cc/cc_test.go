package cc

import (
	"math"
	"testing"

	"mocc/internal/gym"
	"mocc/internal/trace"
)

// link12 is a 12 Mbps (1000 pkts/s at 1500B), 20 ms one-way, 1xBDP link.
func link12() gym.Config {
	return gym.Config{
		Bandwidth: trace.Constant(1000),
		LatencyMs: 20,
		QueuePkts: 40, // ~1xBDP at 40ms RTT
		Seed:      1,
	}
}

func steadyReport(rate, thr, rtt, minRTT, loss float64) Report {
	d := 0.04
	sent := rate * d
	delivered := thr * d
	lost := sent * loss
	return Report{
		Duration: d, Sent: sent, Delivered: delivered, Lost: lost,
		SendRate: rate, Throughput: thr, AvgRTT: rtt, MinRTT: minRTT,
		LossRate: loss,
	}
}

func TestCubicSlowStartGrowth(t *testing.T) {
	c := NewCubic()
	c.InitialRate(0.04)
	w0 := c.Cwnd()
	// Lossless intervals: cwnd should grow fast (slow start).
	for i := 0; i < 5; i++ {
		c.Update(steadyReport(500, 500, 0.04, 0.04, 0))
	}
	if c.Cwnd() <= w0*2 {
		t.Errorf("slow start too slow: %v -> %v", w0, c.Cwnd())
	}
}

func TestCubicLossBackoff(t *testing.T) {
	c := NewCubic()
	c.InitialRate(0.04)
	for i := 0; i < 10; i++ {
		c.Update(steadyReport(500, 500, 0.04, 0.04, 0))
	}
	before := c.Cwnd()
	c.Update(steadyReport(500, 450, 0.05, 0.04, 0.1))
	after := c.Cwnd()
	if math.Abs(after-before*c.Beta) > 1e-9 {
		t.Errorf("loss backoff: %v -> %v, want factor %v", before, after, c.Beta)
	}
}

func TestCubicRecoversTowardWmax(t *testing.T) {
	c := NewCubic()
	c.InitialRate(0.04)
	for i := 0; i < 10; i++ {
		c.Update(steadyReport(500, 500, 0.04, 0.04, 0))
	}
	wMax := c.Cwnd()
	c.Update(steadyReport(500, 450, 0.05, 0.04, 0.1)) // loss
	// Lossless recovery for many RTTs: cubic curve approaches wMax.
	for i := 0; i < 200; i++ {
		c.Update(steadyReport(500, 500, 0.04, 0.04, 0))
	}
	if c.Cwnd() < 0.9*wMax {
		t.Errorf("cubic did not recover toward wMax: %v vs %v", c.Cwnd(), wMax)
	}
}

func TestCubicResetRestoresInitialState(t *testing.T) {
	c := NewCubic()
	c.InitialRate(0.04)
	for i := 0; i < 20; i++ {
		c.Update(steadyReport(500, 500, 0.04, 0.04, 0))
	}
	c.Reset(0)
	if c.Cwnd() != initialCwnd {
		t.Errorf("Reset cwnd = %v, want %v", c.Cwnd(), initialCwnd)
	}
}

func TestVegasHoldsQueueBetweenAlphaBeta(t *testing.T) {
	v := NewVegas()
	v.InitialRate(0.04)
	// Feed a link where RTT inflates proportionally to cwnd so Vegas can
	// find its operating point: queue = cwnd - bdp, rtt = base*(cwnd/bdp).
	const bdp = 40.0 // packets at base RTT 40 ms, 1000 pkts/s
	rate := v.InitialRate(0.04)
	for i := 0; i < 400; i++ {
		cwnd := rate * 0.04
		queue := math.Max(0, cwnd-bdp)
		rtt := 0.04 + queue/1000
		thr := math.Min(rate, 1000)
		rate = v.Update(steadyReport(rate, thr, rtt, 0.04, 0))
	}
	q := v.QueueEstimate()
	if q < v.Alpha-1.5 || q > v.Beta+1.5 {
		t.Errorf("vegas queue estimate %v not within [alpha=%v, beta=%v]", q, v.Alpha, v.Beta)
	}
}

func TestVegasBacksOffOnLoss(t *testing.T) {
	v := NewVegas()
	v.InitialRate(0.04)
	for i := 0; i < 10; i++ {
		v.Update(steadyReport(500, 500, 0.04, 0.04, 0))
	}
	before := v.Cwnd()
	v.Update(steadyReport(500, 400, 0.05, 0.04, 0.2))
	if v.Cwnd() >= before {
		t.Errorf("vegas did not back off on loss: %v -> %v", before, v.Cwnd())
	}
}

func TestBBRStartupExitsAndTracksBandwidth(t *testing.T) {
	b := NewBBR()
	b.InitialRate(0.04)
	// Constant 1000 pkts/s delivered: startup must exit within a handful
	// of rounds once bandwidth growth stalls.
	rate := b.InitialRate(0.04)
	for i := 0; i < 30; i++ {
		thr := math.Min(rate, 1000)
		rate = b.Update(steadyReport(rate, thr, 0.04, 0.04, 0))
	}
	if b.State() == int(bbrStartup) {
		t.Error("BBR stuck in startup on a flat link")
	}
	if math.Abs(b.BtlBw()-1000) > 100 {
		t.Errorf("BtlBw estimate %v, want ~1000", b.BtlBw())
	}
}

func TestBBRProbeBWCyclesAroundEstimate(t *testing.T) {
	b := NewBBR()
	rate := b.InitialRate(0.04)
	var rates []float64
	for i := 0; i < 60; i++ {
		thr := math.Min(rate, 1000)
		rate = b.Update(steadyReport(rate, thr, 0.04, 0.04, 0))
		if b.State() == int(bbrProbeBW) {
			rates = append(rates, rate)
		}
	}
	if len(rates) < 16 {
		t.Fatalf("BBR never settled into ProbeBW (%d samples)", len(rates))
	}
	var sawProbe, sawDrain bool
	for _, r := range rates {
		if r > 1.2*b.BtlBw() {
			sawProbe = true
		}
		if r < 0.8*b.BtlBw() {
			sawDrain = true
		}
	}
	if !sawProbe || !sawDrain {
		t.Errorf("ProbeBW cycle missing probe/drain phases (probe=%v drain=%v)", sawProbe, sawDrain)
	}
}

func TestCopaConvergesTowardTarget(t *testing.T) {
	cp := NewCopa()
	rate := cp.InitialRate(0.04)
	// Queuing delay fixed at 10 ms: target = 1/(0.5*0.01) = 200 pkts/s.
	for i := 0; i < 300; i++ {
		rate = cp.Update(steadyReport(rate, math.Min(rate, 1000), 0.05, 0.04, 0))
	}
	if math.Abs(rate-200) > 40 {
		t.Errorf("copa rate %v, want ~200 (target %v)", rate, cp.TargetRate())
	}
}

func TestCopaVelocityDoubling(t *testing.T) {
	cp := NewCopa()
	rate := cp.InitialRate(0.04)
	// Empty queue: target is huge, direction is consistently "up", so
	// per-interval increments should grow (velocity doubling).
	var increments []float64
	prev := rate
	for i := 0; i < 12; i++ {
		rate = cp.Update(steadyReport(rate, rate, 0.04, 0.04, 0))
		increments = append(increments, rate-prev)
		prev = rate
	}
	// The largest increment (before the rate saturates at the target)
	// must show velocity amplification over the first step.
	maxInc := increments[0]
	for _, inc := range increments {
		if inc > maxInc {
			maxInc = inc
		}
	}
	if maxInc <= increments[0]*2 {
		t.Errorf("velocity not amplifying: first %v max %v", increments[0], maxInc)
	}
}

func TestAllegroUtilityShape(t *testing.T) {
	// More throughput is better at zero loss.
	lo := AllegroUtility(steadyReport(500, 500, 0.04, 0.04, 0))
	hi := AllegroUtility(steadyReport(900, 900, 0.04, 0.04, 0))
	if hi <= lo {
		t.Errorf("utility not increasing in throughput: %v vs %v", lo, hi)
	}
	// Loss above the 5% knee collapses utility.
	lossy := AllegroUtility(steadyReport(900, 900, 0.04, 0.04, 0.10))
	if lossy > 0.2*hi {
		t.Errorf("10%% loss utility %v not penalized vs %v", lossy, hi)
	}
}

func TestVivaceUtilityPenalizesRTTGrowth(t *testing.T) {
	v := &vivaceLatencyState{}
	// First sample seeds the gradient state.
	v.utility(steadyReport(500, 500, 0.040, 0.04, 0))
	flat := v.utility(steadyReport(500, 500, 0.040, 0.04, 0))
	v2 := &vivaceLatencyState{}
	v2.utility(steadyReport(500, 500, 0.040, 0.04, 0))
	rising := v2.utility(steadyReport(500, 500, 0.080, 0.04, 0))
	if rising >= flat {
		t.Errorf("rising RTT utility %v should be below flat %v", rising, flat)
	}
}

func TestPCCProbesAndImproves(t *testing.T) {
	// On a clean 1000 pkts/s link, Allegro should grow its rate toward
	// capacity from a low start.
	env := gym.New(link12())
	alg := NewAllegro()
	ms := Drive(env, alg, 600, 1)
	late := ms[len(ms)-50:]
	var util float64
	for _, m := range late {
		util += m.Utilization
	}
	util /= float64(len(late))
	if util < 0.6 {
		t.Errorf("allegro late utilization %v, want > 0.6", util)
	}
}

func TestVivaceKeepsQueuesLowerThanAllegro(t *testing.T) {
	cfg := link12()
	cfg.QueuePkts = 400 // deep buffer where latency-blind schemes bloat
	envA := gym.New(cfg)
	envV := gym.New(cfg)
	msA := Drive(envA, NewAllegro(), 600, 1)
	msV := Drive(envV, NewVivace(), 600, 1)
	avgQ := func(ms []gym.Metrics) float64 {
		var q float64
		for _, m := range ms[300:] {
			q += m.Queue
		}
		return q / float64(len(ms)-300)
	}
	if qa, qv := avgQ(msA), avgQ(msV); qv > qa {
		t.Errorf("vivace queue %v should be <= allegro queue %v", qv, qa)
	}
}

func TestFeatureTrackerMatchesGym(t *testing.T) {
	// Driving the env while mirroring reports through a FeatureTracker
	// must reproduce the env's own observation exactly.
	cfg := link12()
	cfg.HistoryLen = 6
	cfg.StartRate = 1500
	env := gym.New(cfg)
	tr := NewFeatureTracker(6)
	d := env.Config().MIms / 1000
	for i := 0; i < 40; i++ {
		m := env.Step()
		envObs := env.Observation()
		tr.Push(reportFromMetrics(m, d))
		trObs := tr.Observation()
		for j := range envObs {
			if math.Abs(envObs[j]-trObs[j]) > 1e-9 {
				t.Fatalf("step %d obs[%d]: env %v vs tracker %v", i, j, envObs[j], trObs[j])
			}
		}
		// Vary the rate to exercise all features.
		if i%3 == 0 {
			env.SetRate(600 + float64(i)*20)
		}
	}
}

// TestFeatureTrackerPushAllocFree pins the in-place history window: Push
// allocates nothing, and over 1000 varied reports every observation is bit
// for bit the one a sliding append(history[1:], newest) window gives.
func TestFeatureTrackerPushAllocFree(t *testing.T) {
	const eta = 10
	tr := NewFeatureTracker(eta)
	ref := append([]gym.Stat(nil), tr.history...)
	var got, want []float64
	for i := 0; i < 1000; i++ {
		rtt := 0.02 + 0.001*float64(i%37)
		tr.Push(steadyReport(800+float64(i%13)*50, 700+float64(i%7)*60, rtt, 0.02, 0.01*float64(i%5)))
		ref = append(ref[1:], tr.history[eta-1])
		got = tr.ObservationInto(got)
		want = (&FeatureTracker{history: ref}).ObservationInto(want)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("push %d obs[%d] = %v, append window gives %v", i, j, got[j], want[j])
			}
		}
	}
	r := steadyReport(900, 850, 0.03, 0.02, 0)
	if allocs := testing.AllocsPerRun(1000, func() { tr.Push(r) }); allocs != 0 {
		t.Errorf("Push: %v allocs/op, want 0", allocs)
	}
}

// TestRLRateObserveApplyMatchesUpdate pins Update = Apply(Act(Observe(r)))
// bit for bit over a run whose probe restart and pacing floor both fire.
func TestRLRateObserveApplyMatchesUpdate(t *testing.T) {
	pol := PolicyFunc(func(obs []float64) float64 { return 1.5 - 40*obs[len(obs)-2] })
	whole := NewRLRate("whole", pol, 4)
	split := NewRLRate("split", pol, 4)
	rate := whole.InitialRate(0.04)
	split.InitialRate(0.04)
	for i := 0; i < 300; i++ {
		thr := 1000.0
		if i%50 > 40 {
			thr = 50 // a starved stretch
		}
		r := steadyReport(rate, math.Min(rate, thr), 0.04+0.0005*float64(i%9), 0.04, 0)
		rate = whole.Update(r)
		if got := split.Apply(pol.Act(split.Observe(r))); math.Float64bits(got) != math.Float64bits(rate) {
			t.Fatalf("interval %d: Observe/Apply %v, Update %v", i, got, rate)
		}
	}
}

func TestRLRateAppliesEquationOne(t *testing.T) {
	up := NewRLRate("up", PolicyFunc(func([]float64) float64 { return 1 }), 4)
	r0 := up.InitialRate(0.04)
	r1 := up.Update(steadyReport(r0, r0, 0.04, 0.04, 0))
	want := r0 * (1 + gym.ActionScale)
	if math.Abs(r1-want) > 1e-9 {
		t.Errorf("positive action: %v, want %v", r1, want)
	}
	down := NewRLRate("down", PolicyFunc(func([]float64) float64 { return -1 }), 4)
	r0 = down.InitialRate(0.04)
	r1 = down.Update(steadyReport(r0, r0, 0.04, 0.04, 0))
	want = r0 / (1 + gym.ActionScale)
	if math.Abs(r1-want) > 1e-9 {
		t.Errorf("negative action: %v, want %v", r1, want)
	}
}

func TestRLRateClampsAction(t *testing.T) {
	wild := NewRLRate("wild", PolicyFunc(func([]float64) float64 { return 1000 }), 4)
	r0 := wild.InitialRate(0.04)
	r1 := wild.Update(steadyReport(r0, r0, 0.04, 0.04, 0))
	maxWant := r0 * (1 + gym.ActionScale*wild.MaxAction)
	if r1 > maxWant+1e-9 {
		t.Errorf("action not clamped: %v > %v", r1, maxWant)
	}
}

func TestOrcaDefaultsToCubicWithoutPolicy(t *testing.T) {
	o := NewOrca(nil, 4)
	c := NewCubic()
	o.InitialRate(0.04)
	c.InitialRate(0.04)
	for i := 0; i < 30; i++ {
		r := steadyReport(500, 500, 0.04, 0.04, 0)
		ro := o.Update(r)
		rc := c.Update(r)
		if math.Abs(ro-rc) > 1e-9 {
			t.Fatalf("interval %d: orca %v != cubic %v", i, ro, rc)
		}
	}
	if o.Multiplier() != 1 {
		t.Errorf("nil-policy multiplier = %v, want 1", o.Multiplier())
	}
}

func TestOrcaPolicyScalesCubic(t *testing.T) {
	boost := NewOrca(PolicyFunc(func([]float64) float64 { return 1 }), 4)
	plain := NewCubic()
	boost.InitialRate(0.04)
	plain.InitialRate(0.04)
	var ro, rc float64
	for i := 0; i < 20; i++ {
		r := steadyReport(500, 500, 0.04, 0.04, 0)
		ro = boost.Update(r)
		rc = plain.Update(r)
	}
	if math.Abs(ro-2*rc) > 1e-6*rc {
		t.Errorf("orca with a=1 should double cubic: %v vs 2x%v", ro, rc)
	}
}

func TestDriveProducesMetrics(t *testing.T) {
	env := gym.New(link12())
	ms := Drive(env, NewCubic(), 100, 7)
	if len(ms) != 100 {
		t.Fatalf("got %d metrics, want 100", len(ms))
	}
	// Sanity: cubic should achieve nontrivial utilization on a clean link.
	var util float64
	for _, m := range ms[50:] {
		util += m.Utilization
	}
	util /= 50
	if util < 0.5 {
		t.Errorf("cubic utilization %v suspiciously low", util)
	}
}

func TestAllAlgorithmsSurviveHarshLink(t *testing.T) {
	algs := []Algorithm{
		NewCubic(), NewVegas(), NewBBR(), NewCopa(), NewAllegro(), NewVivace(),
		NewOrca(nil, 10),
		NewRLRate("rl-zero", PolicyFunc(func([]float64) float64 { return 0 }), 10),
	}
	cfg := gym.Config{
		Bandwidth: trace.Step{Low: 100, High: 2000, Period: 0.5},
		LatencyMs: 100,
		QueuePkts: 20,
		LossRate:  0.08,
		Seed:      3,
	}
	for _, alg := range algs {
		env := gym.New(cfg)
		ms := Drive(env, alg, 200, 3)
		for i, m := range ms {
			if math.IsNaN(m.SendRate) || m.SendRate <= 0 {
				t.Errorf("%s: bad rate %v at interval %d", alg.Name(), m.SendRate, i)
				break
			}
		}
	}
}

func TestAlgorithmNames(t *testing.T) {
	want := map[Algorithm]string{
		NewCubic():   "cubic",
		NewVegas():   "vegas",
		NewBBR():     "bbr",
		NewCopa():    "copa",
		NewAllegro(): "pcc-allegro",
		NewVivace():  "pcc-vivace",
	}
	for alg, name := range want {
		if alg.Name() != name {
			t.Errorf("Name = %q, want %q", alg.Name(), name)
		}
	}
}

func TestReportLossEvent(t *testing.T) {
	if (Report{Lost: 0}).LossEvent() {
		t.Error("zero loss reported as event")
	}
	if !(Report{Lost: 1}).LossEvent() {
		t.Error("loss not reported")
	}
}

func TestClampRate(t *testing.T) {
	if got := clampRate(math.NaN()); got != minRatePkts {
		t.Errorf("NaN clamp = %v", got)
	}
	if got := clampRate(-5); got != minRatePkts {
		t.Errorf("negative clamp = %v", got)
	}
	if got := clampRate(1e12); got != maxRatePkts {
		t.Errorf("huge clamp = %v", got)
	}
	if got := clampRate(100); got != 100 {
		t.Errorf("identity clamp = %v", got)
	}
}
