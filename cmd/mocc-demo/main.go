// Command mocc-demo runs a live congestion-controlled transfer over a real
// UDP loopback socket: it starts a receiver, paces packets under the chosen
// controller, and prints the behaviour. This is the user-space (UDT-style)
// deployment path of §5 exercised end to end.
//
// Every scheme runs through the public mocc/transport socket loop. The mocc
// scheme hosts a registered *mocc.App handle exactly as an embedding
// application would; classical schemes are adapted to transport.Controller.
//
// Usage:
//
//	mocc-demo -scheme cubic -duration 2s
//	mocc-demo -scheme mocc -weights "0.8,0.1,0.1" -duration 2s
//	mocc-demo -scheme mocc -model mocc-model.json -drop 0.05
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"mocc"
	"mocc/internal/cc"
	"mocc/internal/objective"
	"mocc/transport"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("mocc-demo: ")

	var (
		scheme   = flag.String("scheme", "mocc", "controller: mocc | cubic | vegas | bbr | copa | pcc-allegro | pcc-vivace")
		weights  = flag.String("weights", "0.8,0.1,0.1", "MOCC preference <thr,lat,loss>")
		model    = flag.String("model", "", "pre-trained model file (empty = quick in-process training)")
		duration = flag.Duration("duration", 2*time.Second, "transfer duration")
		drop     = flag.Float64("drop", 0, "receiver drop probability (emulated loss)")
		seed     = flag.Int64("seed", 1, "seed")
	)
	flag.Parse()

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{DropProb: *drop, Seed: *seed})
	if err != nil {
		log.Fatal(err)
	}
	defer recv.Close()
	log.Printf("receiver on %s (drop=%.1f%%)", recv.Addr(), *drop*100)

	if *scheme == "mocc" {
		runMOCC(recv.Addr(), *weights, *model, *duration, *seed)
		return
	}
	runClassical(recv.Addr(), *scheme, *duration)
}

// runMOCC hosts a registered application handle over the public transport
// binding: Library → Register → transport.Send → App.Stats.
func runMOCC(addr, weights, modelPath string, duration time.Duration, seed int64) {
	w, err := objective.Parse(weights)
	if err != nil {
		log.Fatal(err)
	}
	var model *mocc.Model
	if modelPath != "" {
		model, err = mocc.LoadModelFile(modelPath)
	} else {
		log.Print("no -model given; quick-training MOCC in process (seconds)...")
		opts := mocc.QuickTraining()
		opts.Seed = seed
		model, err = mocc.TrainModel(opts)
	}
	if err != nil {
		log.Fatal(err)
	}
	// Loopback RTTs are microseconds; seed the initial rate accordingly
	// (the library default of 40ms suits WAN paths).
	lib, err := mocc.New(model, mocc.WithInitialRTT(time.Millisecond))
	if err != nil {
		log.Fatal(err)
	}
	app, err := lib.Register(mocc.Weights{Thr: w.Thr, Lat: w.Lat, Loss: w.Loss})
	if err != nil {
		log.Fatal(err)
	}
	defer app.Unregister()

	stats, err := transport.Send(addr, app, duration, transport.Config{})
	if err != nil {
		log.Fatal(err)
	}
	printTransfer(fmt.Sprintf("mocc%v (public handle API)", w), stats)

	s := app.Stats()
	fmt.Println("app telemetry (App.Stats):")
	fmt.Printf("  intervals  %d\n", s.Reports)
	fmt.Printf("  thr        %.0f pps\n", s.Throughput)
	fmt.Printf("  loss       %.2f%%\n", s.LossRate*100)
	fmt.Printf("  avg rtt    %s (min %s)\n", s.AvgRTT.Round(time.Microsecond), s.MinRTT.Round(time.Microsecond))
	fmt.Printf("  rate       %.0f pps now, %.0f pps mean\n", s.Rate, s.MeanRate)
}

// classical adapts a baseline cc.Algorithm (no preference, no handle) to
// transport.Controller, keeping every report it forwards for the summary.
type classical struct {
	alg     cc.Algorithm
	rate    float64
	reports []cc.Report
}

func (c *classical) Rate() float64 { return c.rate }

func (c *classical) Report(st mocc.Status) (float64, error) {
	r := cc.IntervalReport(st.Duration, st.PacketsSent, st.PacketsAcked, st.PacketsLost, st.AvgRTT, st.MinRTT)
	c.reports = append(c.reports, r)
	c.rate = c.alg.Update(r)
	return c.rate, nil
}

// runClassical drives a baseline controller through the same socket loop.
func runClassical(addr, scheme string, duration time.Duration) {
	var alg cc.Algorithm
	switch scheme {
	case "cubic":
		alg = cc.NewCubic()
	case "vegas":
		alg = cc.NewVegas()
	case "bbr":
		alg = cc.NewBBR()
	case "copa":
		alg = cc.NewCopa()
	case "pcc-allegro":
		alg = cc.NewAllegro()
	case "pcc-vivace":
		alg = cc.NewVivace()
	default:
		log.Fatalf("unknown scheme %q", scheme)
	}
	alg.Reset(1)
	c := &classical{alg: alg, rate: alg.InitialRate(0.001)}

	stats, err := transport.Send(addr, c, duration, transport.Config{})
	if err != nil {
		log.Fatal(err)
	}
	printTransfer(alg.Name(), stats)
	if n := len(c.reports); n > 0 {
		fmt.Println("last monitor intervals:")
		for i := max(n-5, 0); i < n; i++ {
			r := c.reports[i]
			fmt.Printf("  MI %2d: rate %.0f pps, delivered %.0f pps, rtt %.2f ms, loss %.1f%%\n",
				i, r.SendRate, r.Throughput, r.AvgRTT*1000, r.LossRate*100)
		}
	}
}

// printTransfer prints the sender-side summary every scheme shares.
func printTransfer(scheme string, stats transport.Stats) {
	fmt.Printf("scheme      %s\n", scheme)
	fmt.Printf("duration    %s\n", stats.Duration.Round(time.Millisecond))
	fmt.Printf("sent        %d packets\n", stats.Sent)
	fmt.Printf("acked       %d packets\n", stats.Acked)
	fmt.Printf("lost        %d packets (inferred)\n", stats.Lost)
	fmt.Printf("avg RTT     %s\n", stats.AvgRTT.Round(time.Microsecond))
	fmt.Printf("throughput  %.1f Mbps\n", stats.ThroughputMbps)
}
