package main

import (
	"math/rand"
	"testing"

	"mocc"
)

// TestSyntheticStatusAlwaysValid pins the load generator's statuses to what
// the library accepts: every seeded draw passes a real App.Report (whose
// validation is what the daemon applies to each datagram) and satisfies
// Acked+Lost <= Sent exactly, so no -serve-addr report is ever refused.
func TestSyntheticStatusAlwaysValid(t *testing.T) {
	opts := mocc.QuickTraining()
	opts.BootstrapIters = 1
	opts.BootstrapCycles = 1
	opts.TraverseCycles = 0
	opts.RolloutSteps = 64
	opts.EpisodeLen = 32
	opts.Workers = 1
	lib, err := mocc.Train(opts)
	if err != nil {
		t.Fatal(err)
	}
	app, err := lib.Register(mocc.Weights{Thr: 0.5, Lat: 0.3, Loss: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 100_000; i++ {
		st := syntheticStatus(rng)
		if st.PacketsAcked+st.PacketsLost > st.PacketsSent {
			t.Fatalf("draw %d: acked %v + lost %v > sent %v", i, st.PacketsAcked, st.PacketsLost, st.PacketsSent)
		}
		if _, err := app.Report(st); err != nil {
			t.Fatalf("draw %d: %v", i, err)
		}
	}
}
