package gym

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"testing"

	"mocc/internal/trace"
)

// trajectory steps e n times under a fixed action sequence and returns the
// bits of everything an episode exposes: the config's scalars and
// schedules, the start rate, then every step's metrics and observation.
func trajectory(e *Env, n int) []uint64 {
	cfg := e.Config()
	out := []uint64{
		math.Float64bits(cfg.MIms), math.Float64bits(cfg.MinRate), math.Float64bits(cfg.MaxRate),
		uint64(cfg.HistoryLen), uint64(cfg.QueuePkts), uint64(e.ObsSize()), math.Float64bits(e.Rate()),
	}
	for _, t := range []float64{0, 0.7, 1.3, 2.9} {
		out = append(out, math.Float64bits(cfg.Bandwidth.At(t)))
		if cfg.CrossTraffic != nil {
			out = append(out, math.Float64bits(cfg.CrossTraffic.At(t)))
		}
	}
	obs := make([]float64, 0, e.ObsSize())
	for i := 0; i < n; i++ {
		e.ApplyAction(2 * math.Sin(0.37*float64(i)))
		m := e.Step()
		for _, v := range []float64{m.Time, m.SendRate, m.Throughput, m.Capacity, m.Utilization,
			m.AvgRTT, m.MinRTT, m.BaseRTT, m.LossRate, m.Queue, m.Sent, m.Delivered, m.Lost} {
			out = append(out, math.Float64bits(v))
		}
		for _, v := range e.ObservationInto(obs[:0]) {
			out = append(out, math.Float64bits(v))
		}
	}
	return append(out, uint64(e.Steps()))
}

// freshEnv builds an environment that was never released: it empties the
// pool first, so New has nothing to renew.
func freshEnv(cfg Config) *Env {
	for envPool.Get() != nil {
	}
	return New(cfg)
}

// recycleConfigs covers several seeds, StartRate set and unset, cross
// traffic off, constant and on/off, and a HistoryLen that grows and
// shrinks from one config to the next.
func recycleConfigs() []Config {
	var cfgs []Config
	hist := []int{4, 10, 2, 10, 3}
	cross := []trace.Bandwidth{nil, trace.Constant(300), trace.Step{Low: 0, High: 600, Period: 0.5}}
	for i, seed := range []int64{1, 7, 42, 1 << 40, -3} {
		for j, start := range []float64{0, 700} {
			cfg := testConfig()
			cfg.Seed = seed
			cfg.StartRate = start
			cfg.LossRate = 0.004 * float64(i)
			cfg.HistoryLen = hist[(i+j)%len(hist)]
			cfg.CrossTraffic = cross[(i+j)%len(cross)]
			cfgs = append(cfgs, cfg)
		}
	}
	return cfgs
}

func TestEnvRecycleMatchesFresh(t *testing.T) {
	cfgs := recycleConfigs()
	want := make([][]uint64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = trajectory(freshEnv(cfg), 40)
	}
	reused := 0
	prev := New(cfgs[len(cfgs)-1])
	trajectory(prev, 25) // leave it mid-episode
	for i, cfg := range cfgs {
		prev.Release()
		e := New(cfg)
		if e == prev {
			reused++
		}
		if got := trajectory(e, 40); !slices.Equal(got, want[i]) {
			t.Fatalf("config %d (seed %d, start rate %v, history %d): a renewed environment steps unlike a fresh one",
				i, cfg.Seed, cfg.StartRate, cfg.HistoryLen)
		}
		prev = e
	}
	// The race detector drops a quarter of pooled items on purpose, so a
	// single renewal may miss the pool, but not every one.
	if reused == 0 {
		t.Fatal("New never renewed the environment released just before it")
	}
}

// TestNewCopiesPointerSchedules pins the copy New makes of a schedule
// given by pointer: the caller may reuse its storage as soon as New
// returns, and the environment steps as with the same schedules by value.
func TestNewCopiesPointerSchedules(t *testing.T) {
	for _, onOff := range []bool{false, true} {
		byValue := testConfig()
		byValue.Bandwidth = trace.Constant(900)
		byValue.CrossTraffic = trace.Constant(250)
		bw, crossC, crossS := trace.Constant(900), trace.Constant(250), trace.Step{Low: 100, High: 500, Period: 0.3}
		byPointer := byValue
		byPointer.Bandwidth = &bw
		byPointer.CrossTraffic = &crossC
		if onOff {
			byValue.CrossTraffic = crossS
			byPointer.CrossTraffic = &crossS
		}
		want := trajectory(freshEnv(byValue), 30)
		e := New(byPointer)
		bw, crossC, crossS = 1, 2, trace.Step{Low: 3} // reused by the caller
		if got := trajectory(e, 30); !slices.Equal(got, want) {
			t.Fatalf("on/off %v: schedules given by pointer step unlike the same schedules by value", onOff)
		}
	}
}

func TestReleaseTwicePanics(t *testing.T) {
	e := New(testConfig())
	e.Release()
	defer func() {
		if recover() == nil {
			t.Error("a second Release of the same environment did not panic")
		}
	}()
	e.Release()
}

// TestEnvPoolConcurrent renews and releases environments from two
// goroutines at once, so pooled environments cross goroutines; run it
// under the race detector.
func TestEnvPoolConcurrent(t *testing.T) {
	cfgs := recycleConfigs()
	want := make([][]uint64, len(cfgs))
	for i, cfg := range cfgs {
		want[i] = trajectory(freshEnv(cfg), 20)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 2)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for round := 0; round < 20; round++ {
				i := (g + 3*round) % len(cfgs)
				e := New(cfgs[i])
				if got := trajectory(e, 20); !slices.Equal(got, want[i]) {
					errs <- fmt.Errorf("goroutine %d round %d: config %d steps unlike a fresh environment", g, round, i)
					return
				}
				e.Release()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
