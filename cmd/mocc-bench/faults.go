package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"mocc"
	"mocc/internal/faults"
	"mocc/transport"
)

// parseFaultPlan builds a faults.Plan from the -faults spec: comma-separated
// injectors, e.g.
//
//	ackloss=0.2x3,dup=0.1,reorder=0.1x2,corrupt=0.2:both,blackout=100-300,nan=5-10,stall=5-8:300ms
//
// Report-path injectors (status delay, clock skew) are exercised by the
// chaos suite; the bench transfer drives the wire and inference injectors
// against a live loopback socket.
func parseFaultPlan(spec string, seed int64) (*faults.Plan, error) {
	plan := &faults.Plan{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("fault %q: want key=value", part)
		}
		switch key {
		case "ackloss":
			prob, n, err := probTimes(val)
			if err != nil {
				return nil, fmt.Errorf("ackloss: %w", err)
			}
			plan.AckLoss = &faults.AckLoss{Prob: prob, Burst: n}
		case "dup":
			prob, err := strconv.ParseFloat(val, 64)
			if err != nil {
				return nil, fmt.Errorf("dup: %w", err)
			}
			plan.Duplicate = &faults.Duplicate{Prob: prob}
		case "reorder":
			prob, n, err := probTimes(val)
			if err != nil {
				return nil, fmt.Errorf("reorder: %w", err)
			}
			plan.Reorder = &faults.Reorder{Prob: prob, Delay: n}
		case "corrupt":
			probStr, side, _ := strings.Cut(val, ":")
			prob, err := strconv.ParseFloat(probStr, 64)
			if err != nil {
				return nil, fmt.Errorf("corrupt: %w", err)
			}
			c := &faults.Corrupt{Prob: prob}
			switch side {
			case "", "both":
				c.Data, c.Acks = true, true
			case "data":
				c.Data = true
			case "acks":
				c.Acks = true
			default:
				return nil, fmt.Errorf("corrupt: unknown side %q (data|acks|both)", side)
			}
			plan.Corrupt = c
		case "blackout":
			var b faults.Blackout
			for _, w := range strings.Split(val, ";") {
				from, to, err := seqRange(w)
				if err != nil {
					return nil, fmt.Errorf("blackout: %w", err)
				}
				b.Windows = append(b.Windows, faults.Window{From: from, To: to})
			}
			plan.Blackout = &b
		case "nan":
			from, to, err := seqRange(val)
			if err != nil {
				return nil, fmt.Errorf("nan: %w", err)
			}
			inf := infFaults(plan)
			inf.NaNFrom, inf.NaNTo = int(from), int(to)
		case "stall":
			rng, durStr, ok := strings.Cut(val, ":")
			if !ok {
				return nil, fmt.Errorf("stall %q: want FROM-TO:DURATION", val)
			}
			from, to, err := seqRange(rng)
			if err != nil {
				return nil, fmt.Errorf("stall: %w", err)
			}
			d, err := time.ParseDuration(durStr)
			if err != nil {
				return nil, fmt.Errorf("stall: %w", err)
			}
			inf := infFaults(plan)
			inf.StallFrom, inf.StallTo, inf.StallFor = int(from), int(to), d
		default:
			return nil, fmt.Errorf("unknown fault %q", key)
		}
	}
	return plan, nil
}

func infFaults(plan *faults.Plan) *faults.InferenceFaults {
	if plan.Inference == nil {
		plan.Inference = &faults.InferenceFaults{}
	}
	return plan.Inference
}

// probTimes parses "PROB" or "PROBxN".
func probTimes(val string) (float64, int, error) {
	probStr, nStr, hasN := strings.Cut(val, "x")
	prob, err := strconv.ParseFloat(probStr, 64)
	if err != nil {
		return 0, 0, err
	}
	n := 0
	if hasN {
		if n, err = strconv.Atoi(nStr); err != nil {
			return 0, 0, err
		}
	}
	return prob, n, nil
}

// seqRange parses "FROM-TO".
func seqRange(val string) (uint64, uint64, error) {
	fromStr, toStr, ok := strings.Cut(val, "-")
	if !ok {
		return 0, 0, fmt.Errorf("range %q: want FROM-TO", val)
	}
	from, err := strconv.ParseUint(fromStr, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	to, err := strconv.ParseUint(toStr, 10, 64)
	if err != nil {
		return 0, 0, err
	}
	return from, to, nil
}

// runFaults trains a quick model, hosts one app over a loopback socket
// transfer with the fault plan interposed on the wire and inference paths,
// and prints the hardened sender's stats next to the app's safe-mode
// telemetry — a one-command chaos run.
func runFaults(spec string, seed int64, dur time.Duration, out *os.File) error {
	plan, err := parseFaultPlan(spec, seed)
	if err != nil {
		return fmt.Errorf("parsing -faults: %w", err)
	}

	lib, err := mocc.Train(mocc.QuickTraining(),
		mocc.WithoutAdaptation(),
		mocc.WithInferenceFault(plan.InferenceHook()))
	if err != nil {
		return err
	}
	app, err := lib.Register(mocc.BalancedPreference)
	if err != nil {
		return err
	}
	defer app.Unregister()

	recv, err := transport.Listen("127.0.0.1:0", transport.ReceiverConfig{})
	if err != nil {
		return err
	}
	defer recv.Close()

	var fc *faults.FaultConn
	stats, sendErr := transport.Send(recv.Addr(), app, dur, transport.Config{
		MaxRatePps:  2000,
		LossTimeout: 60 * time.Millisecond,
		WrapConn: func(inner transport.PacketConn) transport.PacketConn {
			fc = plan.WrapConn(inner)
			return fc
		},
	})

	fmt.Fprintf(out, "== Chaos transfer (seed %d, %v) ==\n", seed, dur)
	fmt.Fprintf(out, "plan: %s\n\n", spec)
	fmt.Fprintf(out, "transport: sent %d acked %d lost %d (%.2f Mbps, avg RTT %v, %d intervals)\n",
		stats.Sent, stats.Acked, stats.Lost, stats.ThroughputMbps, stats.AvgRTT, stats.Intervals)
	fmt.Fprintf(out, "hardening: writeErrs %d blackouts %d (%d intervals, %v) evicted %d\n",
		stats.WriteErrors, stats.Blackouts, stats.BlackoutIntervals, stats.BlackoutTime, stats.Evicted)
	cs := fc.Stats()
	fmt.Fprintf(out, "injected:  dataSwallowed %d dataCorrupt %d dataDup %d ackDrop %d ackCorrupt %d ackReorder %d\n",
		cs.DataSwallowed, cs.DataCorrupted, cs.DataDuplicated, cs.AcksDropped, cs.AcksCorrupted, cs.AcksReordered)
	ast := app.Stats()
	fmt.Fprintf(out, "safe mode: fallbacks %d (%d intervals, active %v) faults %d",
		ast.Fallbacks, ast.FallbackIntervals, ast.FallbackActive, ast.Faults)
	if ast.LastFault != "" {
		fmt.Fprintf(out, " lastFault %q", ast.LastFault)
	}
	fmt.Fprintln(out)
	if sendErr != nil {
		fmt.Fprintf(out, "transfer ended with: %v\n", sendErr)
	}
	return nil
}
