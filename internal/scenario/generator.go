package scenario

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"mocc/internal/gym"
	"mocc/internal/trace"
)

// Family names a generator scenario family.
type Family string

// Generator families, modelled on the link classes the paper's evaluation
// (and the Pantheon/Mahimahi testbeds it leans on) exercises.
const (
	Cellular      Family = "cellular"          // fading random-walk capacity, moderate RTT
	Wifi          Family = "wifi"              // bursty capacity alternation, short RTT
	Satellite     Family = "satellite"         // long RTT, stable capacity, deep buffers
	LossyWireless Family = "lossy-wireless"    // high random loss over a fading link
	Incast        Family = "datacenter-incast" // many synchronized senders, shallow buffer, tiny RTT
	FlashCrowd    Family = "flash-crowd"       // staggered flow arrivals, mixed schemes and transfers
)

// Topology families: multi-link (version 2) scenarios lowered onto the
// topo engine instead of netsim.
const (
	ParkingLot Family = "parking-lot" // two bottlenecks in series, one long + two short flows
	Incast10k  Family = "incast-10k"  // 10k rack-homed senders converging on one core link
	Chain      Family = "chain"       // 3-6 links in series, reactive flows over sub-paths of mixed length
)

// Families returns every single-bottleneck generator family in canonical
// order — the default fuzz/training rotation, unchanged by the topology
// families (which carry very different packet budgets).
func Families() []Family {
	return []Family{Cellular, Wifi, Satellite, LossyWireless, Incast, FlashCrowd}
}

// TopoFamilies returns every topology generator family in canonical order.
func TopoFamilies() []Family {
	return []Family{ParkingLot, Incast10k, Chain}
}

// AllFamilies returns every generator family, single-bottleneck first.
func AllFamilies() []Family {
	return append(Families(), TopoFamilies()...)
}

// FamilyDescription is a one-line description for CLIs.
func FamilyDescription(f Family) string {
	switch f {
	case Cellular:
		return "fading cellular-like link: multiplicative random-walk capacity 0.5-6 Mbps, 40-120 ms RTT"
	case Wifi:
		return "bursty wifi-like link: capacity alternates 8-25 Mbps bursts with sub-3 Mbps lulls"
	case Satellite:
		return "geostationary-satellite-like link: 400-700 ms RTT, stable capacity, deep buffers"
	case LossyWireless:
		return "lossy wireless link: 1-8% random loss over a fading 1-10 Mbps capacity"
	case Incast:
		return "datacenter incast: 6-14 synchronized senders into a shallow buffer at sub-ms RTT"
	case FlashCrowd:
		return "flash crowd: staggered arrivals of mixed schemes and finite transfers on one bottleneck"
	case ParkingLot:
		return "parking lot: two bottlenecks in series, one long flow crossing both against a short flow on each"
	case Incast10k:
		return "10k-sender incast: rack links fanning into one 80-150 Mbps core link, fixed-rate overload"
	case Chain:
		return "chain: 3-6 links in series, one capacity step, loss on at most one, 4-8 reactive flows over sub-paths of mixed length"
	default:
		return "unknown family"
	}
}

// familySeed folds the family name into the scenario seed so two families
// at the same seed draw independent streams, while staying a pure function
// of (family, seed) — the generator's byte-determinism guarantee.
func familySeed(f Family, seed int64) int64 {
	h := fnv.New64a()
	h.Write([]byte(f))
	return int64(h.Sum64() ^ uint64(seed))
}

// schemePool is the reactive built-in schemes generated scenarios draw
// from; all are model-free, so generated specs compile without a resolver
// (a requirement for the differential fuzz harness).
var schemePool = []string{"cubic", "vegas", "bbr", "copa", "pcc-allegro", "pcc-vivace"}

// uniform draws from [lo, hi) — a shorthand over trace.Range so the
// sampling formula (and thus the byte-determinism guarantee) has a single
// home.
func uniform(rng *rand.Rand, lo, hi float64) float64 {
	return trace.Range{Low: lo, High: hi}.Sample(rng)
}

// intBetween draws from [lo, hi] inclusive.
func intBetween(rng *rand.Rand, lo, hi int) int {
	return lo + rng.Intn(hi-lo+1)
}

// round3 quantizes generated parameters so spec JSON stays compact and the
// declarative form — not float dust — carries the scenario.
func round3(v float64) float64 {
	return math.Round(v*1000) / 1000
}

// walkSchedule builds a multiplicative random-walk capacity schedule with
// wraparound, clamped to [loMbps, hiMbps].
func walkSchedule(rng *rand.Rand, loMbps, hiMbps float64, levels int, segLo, segHi, vol float64) ([]Level, float64) {
	out := make([]Level, levels)
	rate := uniform(rng, loMbps, hiMbps)
	t := 0.0
	for i := 0; i < levels; i++ {
		out[i] = Level{AtSec: round3(t), Mbps: round3(rate)}
		t += uniform(rng, segLo, segHi)
		rate *= math.Exp((rng.Float64() - 0.5) * 2 * vol)
		rate = math.Min(math.Max(rate, loMbps), hiMbps)
	}
	return out, round3(t)
}

// burstSchedule alternates high-rate bursts with low-rate lulls.
func burstSchedule(rng *rand.Rand, lullLo, lullHi, burstLo, burstHi float64, levels int, segLo, segHi float64) ([]Level, float64) {
	out := make([]Level, levels)
	t := 0.0
	for i := 0; i < levels; i++ {
		mbps := uniform(rng, lullLo, lullHi)
		if i%2 == 0 {
			mbps = uniform(rng, burstLo, burstHi)
		}
		out[i] = Level{AtSec: round3(t), Mbps: round3(mbps)}
		t += uniform(rng, segLo, segHi)
	}
	return out, round3(t)
}

// Generate produces the deterministic scenario (family, seed) names: the
// same pair yields byte-identical spec JSON on every run and platform.
func Generate(f Family, seed int64) (*Spec, error) {
	rng := rand.New(rand.NewSource(familySeed(f, seed)))
	s := &Spec{
		Version:     SpecVersion,
		Name:        fmt.Sprintf("%s/%d", f, seed),
		Description: FamilyDescription(f),
		Family:      string(f),
		Seed:        seed,
	}
	switch f {
	case Cellular:
		genCellular(rng, s)
	case Wifi:
		genWifi(rng, s)
	case Satellite:
		genSatellite(rng, s)
	case LossyWireless:
		genLossyWireless(rng, s)
	case Incast:
		genIncast(rng, s)
	case FlashCrowd:
		genFlashCrowd(rng, s)
	case ParkingLot:
		genParkingLot(rng, s)
	case Incast10k:
		genIncast10k(rng, s)
	case Chain:
		genChain(rng, s)
	default:
		return nil, fmt.Errorf("scenario: unknown family %q (known: %v)", f, AllFamilies())
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("scenario: generator produced an invalid spec: %w", err)
	}
	return s, nil
}

func pickScheme(rng *rand.Rand) string {
	return schemePool[rng.Intn(len(schemePool))]
}

func genCellular(rng *rand.Rand, s *Spec) {
	s.Link.RTTms = round3(uniform(rng, 40, 120))
	s.Link.QueuePkts = intBetween(rng, 50, 300)
	if rng.Float64() < 0.5 {
		s.Link.LossRate = round3(uniform(rng, 0, 0.01))
	}
	s.Link.Schedule, s.Link.ScheduleLoopSec = walkSchedule(rng, 0.5, 6, intBetween(rng, 8, 14), 0.4, 0.9, 0.45)
	s.DurationSec = round3(uniform(rng, 6, 10))
	nFlows := intBetween(rng, 1, 2)
	for i := 0; i < nFlows; i++ {
		fl := Flow{Scheme: pickScheme(rng)}
		if i > 0 {
			fl.StartSec = round3(uniform(rng, 0.5, 2.5))
		}
		s.Flows = append(s.Flows, fl)
	}
	if rng.Float64() < 0.3 {
		s.Cross = append(s.Cross, Cross{RateMbps: round3(uniform(rng, 0.2, 1.2))})
	}
}

func genWifi(rng *rand.Rand, s *Spec) {
	s.Link.RTTms = round3(uniform(rng, 10, 40))
	s.Link.QueuePkts = intBetween(rng, 100, 400)
	if rng.Float64() < 0.5 {
		s.Link.LossRate = round3(uniform(rng, 0, 0.02))
	}
	s.Link.Schedule, s.Link.ScheduleLoopSec = burstSchedule(rng, 0.5, 3, 8, 25, intBetween(rng, 8, 14), 0.2, 0.6)
	s.DurationSec = round3(uniform(rng, 6, 10))
	nFlows := intBetween(rng, 1, 3)
	for i := 0; i < nFlows; i++ {
		fl := Flow{Scheme: pickScheme(rng)}
		if i > 0 {
			fl.StartSec = round3(uniform(rng, 0.3, 2))
		}
		s.Flows = append(s.Flows, fl)
	}
	if rng.Float64() < 0.3 {
		s.Cross = append(s.Cross, Cross{
			RateMbps: round3(uniform(rng, 0.5, 3)),
			OnOffSec: round3(uniform(rng, 0.5, 2)),
		})
	}
}

func genSatellite(rng *rand.Rand, s *Spec) {
	s.Link.RTTms = round3(uniform(rng, 400, 700))
	s.Link.QueuePkts = intBetween(rng, 300, 1000)
	if rng.Float64() < 0.4 {
		s.Link.LossRate = round3(uniform(rng, 0, 0.005))
	}
	if rng.Float64() < 0.5 {
		s.Link.CapacityMbps = round3(uniform(rng, 2, 20))
	} else {
		// Slow capacity steps (weather / beam handover).
		s.Link.Schedule, s.Link.ScheduleLoopSec = walkSchedule(rng, 2, 20, intBetween(rng, 2, 4), 4, 8, 0.3)
	}
	s.DurationSec = round3(uniform(rng, 14, 18))
	nFlows := intBetween(rng, 1, 2)
	for i := 0; i < nFlows; i++ {
		fl := Flow{Scheme: pickScheme(rng)}
		if i > 0 {
			fl.StartSec = round3(uniform(rng, 1, 4))
		}
		s.Flows = append(s.Flows, fl)
	}
}

func genLossyWireless(rng *rand.Rand, s *Spec) {
	s.Link.RTTms = round3(uniform(rng, 20, 80))
	s.Link.QueuePkts = intBetween(rng, 50, 200)
	s.Link.LossRate = round3(uniform(rng, 0.01, 0.08))
	s.Link.Schedule, s.Link.ScheduleLoopSec = walkSchedule(rng, 1, 10, intBetween(rng, 6, 10), 0.5, 1.2, 0.35)
	s.DurationSec = round3(uniform(rng, 6, 10))
	nFlows := intBetween(rng, 1, 2)
	for i := 0; i < nFlows; i++ {
		fl := Flow{Scheme: pickScheme(rng)}
		if i > 0 {
			fl.StartSec = round3(uniform(rng, 0.5, 2))
		}
		s.Flows = append(s.Flows, fl)
	}
}

func genIncast(rng *rand.Rand, s *Spec) {
	s.Link.RTTms = round3(uniform(rng, 0.2, 2))
	s.Link.QueuePkts = intBetween(rng, 30, 150)
	cap := round3(uniform(rng, 50, 200))
	s.Link.CapacityMbps = cap
	s.DurationSec = round3(uniform(rng, 3, 5))
	n := intBetween(rng, 6, 14)
	// Aggregate offered load 1.5-3x capacity, split evenly: the classic
	// synchronized-sender overload, with fixed-rate senders so the packet
	// count stays bounded for the fuzz harness.
	agg := uniform(rng, 1.5, 3)
	per := round3(cap * agg / float64(n))
	for i := 0; i < n; i++ {
		fl := Flow{
			Scheme:   "fixed",
			RateMbps: per,
			StartSec: round3(uniform(rng, 0, 0.3)),
		}
		if rng.Float64() < 0.3 {
			fl.StopSec = round3(uniform(rng, 0.6*s.DurationSec, s.DurationSec))
		}
		s.Flows = append(s.Flows, fl)
	}
}

func genFlashCrowd(rng *rand.Rand, s *Spec) {
	s.Link.RTTms = round3(uniform(rng, 20, 60))
	s.Link.QueuePkts = intBetween(rng, 200, 800)
	s.Link.CapacityMbps = round3(uniform(rng, 10, 40))
	if rng.Float64() < 0.4 {
		s.Link.LossRate = round3(uniform(rng, 0, 0.005))
	}
	s.DurationSec = round3(uniform(rng, 8, 12))
	n := intBetween(rng, 4, 8)
	for i := 0; i < n; i++ {
		fl := Flow{Scheme: pickScheme(rng)}
		if i > 0 {
			// Arrivals pile up over the first half of the run.
			fl.StartSec = round3(uniform(rng, 0, s.DurationSec/2))
		}
		if rng.Float64() < 0.4 {
			fl.App = &App{Kind: "bulk", FileMBytes: round3(uniform(rng, 0.2, 1))}
		}
		s.Flows = append(s.Flows, fl)
	}
}

// genParkingLot emits the classic two-bottleneck chain: a long flow crosses
// both links while a short flow loads each — the minimal topology where
// multi-link fairness differs from any single-bottleneck reduction.
func genParkingLot(rng *rand.Rand, s *Spec) {
	left := Link{
		Name:         "left",
		DelayMs:      round3(uniform(rng, 5, 20)),
		CapacityMbps: round3(uniform(rng, 8, 30)),
		QueuePkts:    intBetween(rng, 60, 300),
	}
	right := Link{
		Name:         "right",
		DelayMs:      round3(uniform(rng, 5, 20)),
		CapacityMbps: round3(uniform(rng, 8, 30)),
		QueuePkts:    intBetween(rng, 60, 300),
	}
	if rng.Float64() < 0.3 {
		right.LossRate = round3(uniform(rng, 0, 0.01))
	}
	s.Links = []Link{left, right}
	s.DurationSec = round3(uniform(rng, 6, 10))
	s.Flows = []Flow{
		{Scheme: pickScheme(rng), Label: "long", Path: []string{"left", "right"}},
		{Scheme: pickScheme(rng), Label: "short-left", Path: []string{"left"},
			StartSec: round3(uniform(rng, 0.3, 2))},
		{Scheme: pickScheme(rng), Label: "short-right", Path: []string{"right"},
			StartSec: round3(uniform(rng, 0.3, 2))},
	}
}

// genIncast10k emits the scale scenario: 10,000 fixed-rate senders homed on
// a handful of rack links all converging on one core link. Fixed-rate
// senders and an explicit 200 ms monitor interval keep the packet count and
// the MI-series memory bounded while still pushing ~10^5 packets and 10^4
// flows through every engine.
func genIncast10k(rng *rand.Rand, s *Spec) {
	const n = 10000
	racks := intBetween(rng, 4, 8)
	coreMbps := round3(uniform(rng, 80, 150))
	s.Links = make([]Link, 0, racks+1)
	for i := 0; i < racks; i++ {
		s.Links = append(s.Links, Link{
			Name:         fmt.Sprintf("rack%d", i),
			DelayMs:      round3(uniform(rng, 0.25, 1)),
			CapacityMbps: round3(uniform(rng, 0.5, 1) * coreMbps),
			QueuePkts:    intBetween(rng, 60, 200),
		})
	}
	s.Links = append(s.Links, Link{
		Name:         "core",
		DelayMs:      round3(uniform(rng, 0.5, 2)),
		CapacityMbps: coreMbps,
		QueuePkts:    intBetween(rng, 100, 400),
	})
	s.DurationSec = round3(uniform(rng, 1.5, 2.5))
	agg := uniform(rng, 2, 4)
	per := round3(coreMbps * agg / n)
	s.Flows = make([]Flow, 0, n)
	for i := 0; i < n; i++ {
		s.Flows = append(s.Flows, Flow{
			Scheme:   "fixed",
			RateMbps: per,
			StartSec: round3(uniform(rng, 0, 0.3)),
			MIms:     200,
			Path:     []string{fmt.Sprintf("rack%d", i%racks), "core"},
		})
	}
}

// genChain emits the shape the other two topology families leave out and
// the repository benchmark's sim-topo workload has: three to six links in
// series, reactive schemes over contiguous sub-paths of every length (the
// first flow crosses the whole chain), staggered starts and stops, one bulk
// budget, a capacity step on one link mid-run, random loss on at most one,
// and up to two single-link cross flows. Mid-path hand-offs, mid-path loss
// notices and per-hop queues all carry traffic that reacts to them.
func genChain(rng *rand.Rand, s *Spec) {
	n := intBetween(rng, 3, 6)
	s.DurationSec = round3(uniform(rng, 6, 10))
	stepped, lossy := rng.Intn(n), rng.Intn(n+1) // lossy == n: no loss anywhere
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("hop%d", i)
		l := Link{
			Name:      names[i],
			DelayMs:   round3(uniform(rng, 2, 12)),
			QueuePkts: intBetween(rng, 80, 300),
		}
		if mbps := round3(uniform(rng, 10, 30)); i == stepped {
			l.Schedule = []Level{
				{AtSec: 0, Mbps: mbps},
				{AtSec: round3(uniform(rng, 0.3, 0.7) * s.DurationSec), Mbps: round3(mbps * uniform(rng, 0.5, 1.5))},
			}
		} else {
			l.CapacityMbps = mbps
		}
		if i == lossy {
			l.LossRate = round3(uniform(rng, 0.001, 0.01))
		}
		s.Links = append(s.Links, l)
	}
	nFlows := intBetween(rng, 4, 8)
	bulk := rng.Intn(nFlows)
	for i := 0; i < nFlows; i++ {
		lo, hi := 0, n
		if i > 0 {
			lo = rng.Intn(n)
			hi = lo + 1 + rng.Intn(n-lo)
		}
		fl := Flow{Scheme: pickScheme(rng), Path: names[lo:hi:hi]}
		if i > 0 {
			fl.StartSec = round3(uniform(rng, 0, s.DurationSec/2))
		}
		if rng.Float64() < 0.3 {
			fl.StopSec = round3(uniform(rng, 0.7*s.DurationSec, s.DurationSec))
		}
		if i == bulk {
			fl.App = &App{Kind: "bulk", FileMBytes: round3(uniform(rng, 0.5, 3))}
		}
		s.Flows = append(s.Flows, fl)
	}
	for i, nCross := 0, intBetween(rng, 0, 2); i < nCross; i++ {
		at := rng.Intn(n)
		c := Cross{RateMbps: round3(uniform(rng, 0.5, 3)), Path: names[at : at+1 : at+1]}
		if rng.Float64() < 0.5 {
			c.OnOffSec = round3(uniform(rng, 0.5, 2))
		}
		s.Cross = append(s.Cross, c)
	}
}

// Generator enumerates deterministic scenarios over a set of families:
// scenario i comes from family i mod len(Families) at seed Seed+i. Training
// and evaluation consume it as an open-ended suite instead of a fixed grid.
type Generator struct {
	// Families defaults to Families().
	Families []Family
	// Seed offsets every scenario's seed.
	Seed int64
}

// families resolves the configured family set.
func (g Generator) families() []Family {
	if len(g.Families) > 0 {
		return g.Families
	}
	return Families()
}

// Spec returns the i-th scenario of the suite.
func (g Generator) Spec(i int) (*Spec, error) {
	if i < 0 {
		return nil, fmt.Errorf("scenario: suite index %d must be >= 0", i)
	}
	fams := g.families()
	return Generate(fams[i%len(fams)], g.Seed+int64(i))
}

// EnvFactory adapts the suite to the training stack: one generated
// scenario per environment seed, lowered to the gym's single-flow view.
// The returned function is rl.EnvFactory-compatible. Generated specs never
// reference trace files, so no options are needed. Unknown family names
// error here, at setup, rather than mid-training.
func (g Generator) EnvFactory() (func(seed int64) *gym.Env, error) {
	fams := g.families()
	for _, f := range fams {
		if _, err := Generate(f, 0); err != nil {
			return nil, err
		}
	}
	return func(seed int64) *gym.Env {
		fam := fams[int(uint64(seed)%uint64(len(fams)))]
		spec, err := Generate(fam, g.Seed^seed)
		if err != nil {
			panic(err) // unreachable: families pre-validated above
		}
		cfg, err := spec.Gym(CompileOptions{})
		if err != nil {
			panic(err) // unreachable: generated specs never use trace files
		}
		cfg.HistoryLen = gym.DefaultHistoryLen
		return gym.New(cfg)
	}, nil
}
