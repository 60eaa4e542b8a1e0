package mocc_test

import (
	"math"
	"path/filepath"
	"testing"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/core"
	"mocc/internal/netsim"
	"mocc/internal/nn"
	"mocc/internal/objective"
	"mocc/internal/trace"
	"mocc/transport"
)

// quickLib trains a scaled-down library for integration tests.
func quickLib(t *testing.T) *mocc.Library {
	t.Helper()
	opts := mocc.QuickTraining()
	opts.Omega = 3
	opts.BootstrapIters = 4
	opts.BootstrapCycles = 1
	opts.TraverseCycles = 0
	lib, err := mocc.Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	return lib
}

// TestEndToEndTrainSaveLoadDeploy exercises the full product pipeline:
// offline training via the public API, model persistence, reload, and
// deployment of the loaded model as a flow in the packet-level simulator
// alongside a TCP competitor.
func TestEndToEndTrainSaveLoadDeploy(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	lib := quickLib(t)
	path := filepath.Join(t.TempDir(), "model.json")
	if err := lib.SaveModel(path); err != nil {
		t.Fatal(err)
	}

	// Reload through the internal layer and deploy in netsim.
	model := core.NewModel(core.HistoryLen, 0)
	snap, err := nn.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := model.Restore(snap); err != nil {
		t.Fatal(err)
	}

	link := netsim.LinkConfig{
		Capacity:  trace.Constant(1000),
		OWD:       0.020,
		QueuePkts: 80,
	}
	n := netsim.NewNetwork(link, 1)
	moccFlow := n.AddFlow(netsim.FlowConfig{
		Alg:  model.AlgorithmFor("mocc", objective.ThroughputPref),
		Seed: 1,
	})
	cubicFlow := n.AddFlow(netsim.FlowConfig{Alg: cc.NewCubic(), Seed: 2})
	n.Run(30)

	if moccFlow.DeliveredTotal == 0 {
		t.Fatal("deployed MOCC flow delivered nothing")
	}
	if cubicFlow.DeliveredTotal == 0 {
		t.Fatal("cubic competitor delivered nothing")
	}
	// Neither flow may starve (the deployment guards guarantee this).
	share := float64(moccFlow.DeliveredTotal) /
		float64(moccFlow.DeliveredTotal+cubicFlow.DeliveredTotal)
	if share < 0.02 || share > 0.98 {
		t.Errorf("pathological share %v for deployed MOCC flow", share)
	}
}

// TestEndToEndUDPDatapath hosts a registered application handle over the
// public transport binding — the user-space deployment of §5 on a real
// loopback socket, driven entirely through the v2 surface: Library →
// Register → transport.Send → App.Stats.
func TestEndToEndUDPDatapath(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	lib := quickLib(t)
	app, err := lib.Register(mocc.RTCPreference)
	if err != nil {
		t.Fatal(err)
	}
	defer app.Unregister()

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer recv.Close()

	stats, err := transport.Send(recv.Addr(), app, 400*time.Millisecond, transport.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if stats.Sent == 0 || stats.Acked == 0 {
		t.Fatalf("UDP transfer moved no data: %+v", stats)
	}
	if recv.Received() == 0 {
		t.Fatal("receiver accepted no packets")
	}

	s := app.Stats()
	if s.Reports == 0 || int(s.Reports) != stats.Intervals {
		t.Fatalf("telemetry out of sync: app reports %d, transport intervals %d", s.Reports, stats.Intervals)
	}
	if s.PacketsAcked == 0 {
		t.Fatalf("app telemetry saw no deliveries: %+v", s)
	}
	if math.IsNaN(s.Rate) || s.Rate <= 0 {
		t.Fatalf("bad final rate %v", s.Rate)
	}
}

// TestProfileToLibraryFlow maps application-level requirements (§7) onto
// weights and registers them through the public API.
func TestProfileToLibraryFlow(t *testing.T) {
	if testing.Short() {
		t.Skip("training pipeline in -short mode")
	}
	opts := mocc.QuickTraining()
	opts.Omega = 3
	opts.BootstrapIters = 2
	opts.BootstrapCycles = 1
	opts.TraverseCycles = 0
	lib, err := mocc.Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	for name, profile := range objective.CommonProfiles() {
		w, err := profile.Weights()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		app, err := lib.Register(mocc.Weights{Thr: w.Thr, Lat: w.Lat, Loss: w.Loss})
		if err != nil {
			t.Fatalf("%s: register: %v", name, err)
		}
		if rate := app.Rate(); rate <= 0 {
			t.Fatalf("%s: rate %v", name, rate)
		}
	}
}
