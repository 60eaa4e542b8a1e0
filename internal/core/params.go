package core

import (
	"math/rand"
	"sync"

	"mocc/internal/gym"
	"mocc/internal/rl"
	"mocc/internal/trace"
)

// Table 2 parameter settings.
const (
	// Gamma is the reward discount factor.
	Gamma = 0.99
	// LearningRate is the Adam learning rate.
	LearningRate = 0.001
	// ActionScale is the rate-change damping factor α of Equation 1.
	ActionScale = gym.ActionScale
	// HistoryLen is the statistics history length η.
	HistoryLen = gym.DefaultHistoryLen
	// OmegaDefault is the number of landmark objectives ω (§6.5 finds 36
	// is the sweet spot).
	OmegaDefault = 36
)

// PacketBytes is the MTU-sized packet assumed for Mbps conversions
// throughout the evaluation.
const PacketBytes = 1500

// TrainingEnvs returns an environment factory that samples the Table 3
// training ranges: each seed draws an independent link condition, so
// successive episodes expose the agent to the full training distribution.
// Half the episodes add non-reactive cross traffic (20-60% of capacity) so
// the learned policies neither starve against competitors nor assume they
// own the queue — the same robustness training Orca and Aurora report.
// The factory is safe for concurrent use, and with environments released
// back to gym it allocates nothing once warm.
func TrainingEnvs(ranges trace.NetRanges, historyLen int) rl.EnvFactory {
	var draws sync.Pool // of *linkDraw
	return func(seed int64) *gym.Env {
		d, _ := draws.Get().(*linkDraw)
		if d == nil {
			d = &linkDraw{rng: rand.New(rand.NewSource(seed))}
		} else {
			d.rng.Seed(seed) // the state of a fresh rand.NewSource(seed)
		}
		rng := d.rng
		cond := ranges.Sample(rng)
		// Cap the buffer at 6x the bandwidth-delay product: Table 3's raw
		// 3000-packet queues on 1-5 Mbps links take tens of seconds (many
		// hundreds of MIs) to drain, which no finite episode can teach a
		// latency policy to undo. A BDP-relative cap keeps latency
		// consequences observable within an episode while still covering
		// deep-buffer regimes.
		bdp := trace.MbpsToPktsPerSec(cond.BandwidthMbps, PacketBytes) * 2 * cond.LatencyMs / 1000
		if maxQ := int(6 * bdp); cond.QueuePkts > maxQ && maxQ >= 2 {
			cond.QueuePkts = maxQ
		}
		// gym.FromCondition's Config, its schedules kept in d for gym.New
		// to copy instead of boxed.
		d.bw = trace.Constant(trace.MbpsToPktsPerSec(cond.BandwidthMbps, PacketBytes))
		cfg := gym.Config{
			Bandwidth:  &d.bw,
			LatencyMs:  cond.LatencyMs,
			QueuePkts:  cond.QueuePkts,
			LossRate:   cond.LossRate,
			HistoryLen: historyLen,
			Seed:       rng.Int63(),
		}
		if rng.Float64() < 0.4 {
			frac := 0.2 + 0.4*rng.Float64()
			crossRate := frac * float64(d.bw)
			if rng.Float64() < 0.5 {
				d.cross = trace.Constant(crossRate)
				cfg.CrossTraffic = &d.cross
			} else {
				// On/off competitor for burstier dynamics.
				d.onOff = trace.Step{Low: 0, High: crossRate, Period: 1 + 3*rng.Float64()}
				cfg.CrossTraffic = &d.onOff
			}
		}
		env := gym.New(cfg)
		draws.Put(d)
		return env
	}
}

// linkDraw is one TrainingEnvs call's state: the random stream that draws
// the link, reseeded on every call, and the drawn schedules.
type linkDraw struct {
	rng       *rand.Rand
	bw, cross trace.Constant
	onOff     trace.Step
}

// FixedEnv returns a factory that always produces the given link condition
// (used by evaluation and the adaptation experiments, where the paper holds
// the network fixed while the objective changes).
func FixedEnv(cond trace.Condition, historyLen int) rl.EnvFactory {
	return func(seed int64) *gym.Env {
		cfg := gym.FromCondition(cond, PacketBytes, seed)
		cfg.HistoryLen = historyLen
		return gym.New(cfg)
	}
}
