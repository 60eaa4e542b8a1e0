package transport_test

import (
	"math"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/faults"
	"mocc/transport"
)

// chaosModel shares one minimally-trained model across the chaos suite;
// each test builds its own Library (with its own fault options) over it.
var (
	chaosOnce  sync.Once
	chaosModel *mocc.Model
	chaosErr   error
)

func chaosLibrary(t testing.TB, opts ...mocc.Option) *mocc.Library {
	t.Helper()
	chaosOnce.Do(func() {
		topts := mocc.QuickTraining()
		topts.Omega = 3
		topts.BootstrapIters = 2
		topts.BootstrapCycles = 1
		topts.TraverseCycles = 0
		var lib *mocc.Library
		lib, chaosErr = mocc.Train(topts)
		if chaosErr == nil {
			chaosModel = lib.Model()
		}
	})
	if chaosErr != nil {
		t.Fatalf("training chaos model: %v", chaosErr)
	}
	lib, err := mocc.New(chaosModel, append([]mocc.Option{mocc.WithoutAdaptation()}, opts...)...)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return lib
}

func registerChaosApp(t *testing.T, lib *mocc.Library) *mocc.App {
	t.Helper()
	app, err := lib.Register(mocc.BalancedPreference)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { app.Unregister() })
	return app
}

func assertRateInEnvelope(t *testing.T, app *mocc.App, context string) {
	t.Helper()
	r := app.Rate()
	if math.IsNaN(r) || r < cc.MinPacingRate || r > cc.MaxPacingRate {
		t.Fatalf("%s: app rate %v left the pacing envelope [%v, %v]",
			context, r, float64(cc.MinPacingRate), float64(cc.MaxPacingRate))
	}
}

// TestBlackoutRecoveryReceiverClosedMidSend kills the receiver partway
// through a transfer: Send must return (no hang) with the disruption
// visible in Stats, and the app's published rate must stay inside the
// pacing envelope.
func TestBlackoutRecoveryReceiverClosedMidSend(t *testing.T) {
	lib := chaosLibrary(t)
	app := registerChaosApp(t, lib)

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}

	type result struct {
		stats transport.Stats
		err   error
	}
	done := make(chan result, 1)
	go func() {
		stats, err := transport.Send(recv.Addr(), app, 800*time.Millisecond, transport.Config{
			MaxRatePps:  2000,
			LossTimeout: 60 * time.Millisecond,
		})
		done <- result{stats, err}
	}()

	time.Sleep(250 * time.Millisecond)
	_ = recv.Close()

	var res result
	select {
	case res = <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Send hung after the receiver died")
	}
	if res.err != nil && !strings.Contains(res.err.Error(), "write failures") {
		t.Fatalf("Send returned an unexpected error: %v", res.err)
	}
	st := res.stats
	if st.Sent == 0 || st.Acked == 0 {
		t.Fatalf("transfer never got going: %+v", st)
	}
	if st.WriteErrors == 0 && st.Blackouts == 0 && st.Lost == 0 {
		t.Fatalf("receiver death left no trace in Stats: %+v", st)
	}
	assertRateInEnvelope(t, app, "after receiver death")
}

// TestChaosSequenceBlackoutWindowRecovery drives a seeded fault plan that
// silences the receiver for a window of wire sequences: the sender must
// detect the ack blackout, drop to probing, and hand control back to the
// learned path once acks resume — all visible in Stats.
func TestChaosSequenceBlackoutWindowRecovery(t *testing.T) {
	lib := chaosLibrary(t)
	app := registerChaosApp(t, lib)

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	plan := &faults.Plan{
		Seed:     42,
		Blackout: &faults.Blackout{Windows: []faults.Window{{From: 50, To: 120}}},
	}
	var fc *faults.FaultConn
	stats, err := transport.Send(recv.Addr(), app, 2*time.Second, transport.Config{
		MaxRatePps:  2000,
		LossTimeout: 60 * time.Millisecond,
		WrapConn: func(inner transport.PacketConn) transport.PacketConn {
			fc = plan.WrapConn(inner)
			return fc
		},
	})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if fc.Stats().DataSwallowed == 0 {
		t.Fatal("the blackout window never fired; widen it or slow the send")
	}
	if stats.Blackouts == 0 || stats.BlackoutIntervals == 0 {
		t.Fatalf("ack blackout not detected: %+v", stats)
	}
	if stats.BlackoutIntervals >= stats.Intervals {
		t.Fatalf("sender never recovered from the blackout: %+v", stats)
	}
	if stats.Acked == 0 {
		t.Fatalf("no acks after recovery: %+v", stats)
	}
	if stats.Lost == 0 {
		t.Fatalf("swallowed window not visible as loss: %+v", stats)
	}
	assertRateInEnvelope(t, app, "after blackout recovery")
}

// TestChaosCorruptedAndLossyWire composes every wire injector at once:
// the transfer must complete without error or panic, deliver some
// traffic, and the injectors must actually have fired.
func TestChaosCorruptedAndLossyWire(t *testing.T) {
	lib := chaosLibrary(t)
	app := registerChaosApp(t, lib)

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	plan := &faults.Plan{
		Seed:      7,
		AckLoss:   &faults.AckLoss{Prob: 0.15, Burst: 2},
		Duplicate: &faults.Duplicate{Prob: 0.1},
		Reorder:   &faults.Reorder{Prob: 0.1, Delay: 2},
		Corrupt:   &faults.Corrupt{Prob: 0.2, Data: true, Acks: true},
	}
	var fc *faults.FaultConn
	stats, err := transport.Send(recv.Addr(), app, time.Second, transport.Config{
		MaxRatePps:  2000,
		LossTimeout: 60 * time.Millisecond,
		WrapConn: func(inner transport.PacketConn) transport.PacketConn {
			fc = plan.WrapConn(inner)
			return fc
		},
	})
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if stats.Acked == 0 {
		t.Fatalf("nothing delivered through the lossy wire: %+v", stats)
	}
	cs := fc.Stats()
	if cs.AcksDropped == 0 || cs.DataCorrupted == 0 || cs.AcksCorrupted == 0 {
		t.Fatalf("injectors never fired: %+v", cs)
	}
	assertRateInEnvelope(t, app, "after lossy-wire transfer")
}

// TestChaosNaNPoisonedModelOverTransport runs a NaN-poisoned model over a
// real socket transfer: safe mode must trip to the AIMD fallback, the
// published rate must never leave the envelope (sampled concurrently
// throughout the transfer), and the learned path must be back in control
// by the end.
func TestChaosNaNPoisonedModelOverTransport(t *testing.T) {
	var calls atomic.Int64
	nan := func(act float64) float64 {
		if i := int(calls.Add(1)) - 1; i >= 5 && i < 10 {
			return math.NaN()
		}
		return act
	}
	lib := chaosLibrary(t,
		mocc.WithInferenceFault(nan),
		mocc.WithSafeMode(mocc.SafeModeConfig{TripAfter: 2, RecoverAfter: 3}),
	)
	app := registerChaosApp(t, lib)

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	stopSampling := make(chan struct{})
	var badRate atomic.Value
	go func() {
		for {
			select {
			case <-stopSampling:
				return
			case <-time.After(5 * time.Millisecond):
				r := app.Rate()
				if math.IsNaN(r) || r < cc.MinPacingRate || r > cc.MaxPacingRate {
					badRate.Store(r)
					return
				}
			}
		}
	}()

	stats, err := transport.Send(recv.Addr(), app, time.Second, transport.Config{
		MaxRatePps:  2000,
		LossTimeout: 60 * time.Millisecond,
	})
	close(stopSampling)
	if err != nil {
		t.Fatalf("Send: %v", err)
	}
	if r := badRate.Load(); r != nil {
		t.Fatalf("published rate %v left the envelope during the transfer", r)
	}
	if stats.Intervals == 0 || stats.Acked == 0 {
		t.Fatalf("transfer never got going: %+v", stats)
	}
	ast := app.Stats()
	if ast.Fallbacks < 1 || ast.FallbackIntervals == 0 {
		t.Fatalf("NaN burst did not trip safe mode: %+v", ast)
	}
	if !strings.Contains(ast.LastFault, "non-finite") {
		t.Fatalf("LastFault = %q, want a non-finite-action fault", ast.LastFault)
	}
	if ast.FallbackActive {
		t.Fatal("learned path not back in control after the NaN window cleared")
	}
}
