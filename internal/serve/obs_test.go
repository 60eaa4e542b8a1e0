package serve

import (
	"slices"
	"strings"
	"sync"
	"testing"

	"mocc/internal/core"
	"mocc/internal/objective"
	"mocc/internal/obs"
)

// TestEngineObsWiring drives the engine with metrics and events attached
// and checks every series shows up in the exposition with plausible
// values, that flush causes are attributed, and that each decision
// carries the epoch that served it.
func TestEngineObsWiring(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 42)
	reg := obs.NewRegistry()
	events := obs.NewEventLog(64)
	e := New(m, Config{Shards: 2, MaxBatch: 8, Metrics: reg, Events: events})

	const clients, rounds = 8, 20
	prefs := objective.UniformObjectives(clients, 7)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := e.NewClient(uint64(c), prefs[c])
			for r := 0; r < rounds; r++ {
				cl.Act(testObs(m, c, r))
			}
			if cl.LastEpoch() != 0 {
				t.Errorf("client %d: LastEpoch = %d before any publish", c, cl.LastEpoch())
			}
		}(c)
	}
	wg.Wait()

	// Publish a new generation and confirm decisions now carry epoch 1
	// and the event log recorded the publish.
	if _, err := e.Publish(m.Clone()); err != nil {
		t.Fatal(err)
	}
	cl := e.NewClient(99, prefs[0])
	cl.Act(testObs(m, 99, 0))
	if cl.LastEpoch() != 1 {
		t.Fatalf("LastEpoch = %d after publish, want 1", cl.LastEpoch())
	}
	e.Close()

	var sb strings.Builder
	reg.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"mocc_serve_reports_total",
		"mocc_serve_batches_total",
		"mocc_serve_queue_depth",
		"mocc_serve_epoch 1",
		`mocc_serve_sheds_total{cause="queue"} 0`,
		"mocc_serve_batch_size_count",
		"mocc_serve_decision_latency_seconds_bucket",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}

	// Latency histogram samples 1 in 8 requests per client (every client
	// samples its first request, then every 8th); batch-size histogram
	// records one sample per forward pass.
	st := e.Stats()
	lat := reg.Histogram("mocc_serve_decision_latency_seconds", "", 1e-9).Snapshot()
	wantLat := uint64(clients)*((rounds+7)/8) + 1 // + the post-publish client
	if lat.Count != wantLat {
		t.Fatalf("latency samples = %d, want %d (1-in-8 of %d reports)",
			lat.Count, wantLat, st.Reports)
	}
	bs := reg.Histogram("mocc_serve_batch_size", "", 1).Snapshot()
	if bs.Count != st.Batches || bs.Sum != st.Reports {
		t.Fatalf("batch-size hist count=%d sum=%d vs batches=%d reports=%d",
			bs.Count, bs.Sum, st.Batches, st.Reports)
	}

	// The exposed cause set is exactly the three the one batching path can
	// produce, and every flush was attributed to one of them.
	var causes []string
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, `mocc_serve_flushes_total{cause="`); ok {
			causes = append(causes, rest[:strings.IndexByte(rest, '"')])
		}
	}
	slices.Sort(causes)
	if want := []string{"drain", "eager", "full"}; !slices.Equal(causes, want) {
		t.Fatalf("flush causes exposed = %v, want %v", causes, want)
	}
	var flushes uint64
	for _, cause := range causes {
		flushes += reg.Counter(`mocc_serve_flushes_total{cause="`+cause+`"}`, "").Value()
	}
	if flushes == 0 {
		t.Fatal("no flushes attributed")
	}

	// The publish landed in the event log.
	var sawPublish bool
	for _, ev := range events.Tail(64) {
		if ev.Type == obs.EvEpochPublish && ev.Epoch == 1 {
			sawPublish = true
		}
	}
	if !sawPublish {
		t.Fatalf("no epoch_publish event: %+v", events.Tail(64))
	}
}

// TestEngineObsDisabled pins that a metrics-free engine still works and
// that LastEpoch tracks without a registry.
func TestEngineObsDisabled(t *testing.T) {
	m := core.NewModel(core.HistoryLen, 7)
	e := New(m, Config{Shards: 1, MaxBatch: 4})
	defer e.Close()
	cl := e.NewClient(1, objective.UniformObjectives(1, 3)[0])
	cl.Act(testObs(m, 1, 0))
	if cl.LastEpoch() != 0 {
		t.Fatalf("LastEpoch = %d", cl.LastEpoch())
	}
}
