// Command rmacsim runs one simulation of the paper's evaluation setup and
// prints every measured metric: delivery ratio, drop ratio,
// retransmission ratio, transmission overhead ratio, end-to-end delay,
// MRTS length distribution and MRTS abortion ratio.
//
// Example:
//
//	rmacsim -protocol rmac -scenario stationary -rate 40 -packets 1000
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"rmac/internal/cli"
	"rmac/internal/experiment"
	"rmac/internal/fault"
	"rmac/internal/geom"
	"rmac/internal/sim"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred cleanup (profiles, signal
// handler teardown) executes before the process exits.
func run() int {
	cfg := experiment.DefaultConfig()
	var protocol, scenario string
	flag.StringVar(&protocol, "protocol", "rmac", "MAC protocol: "+cli.ProtocolNames(", "))
	flag.StringVar(&scenario, "scenario", "stationary", "mobility: stationary, speed1 (0-4 m/s), speed2 (0-8 m/s)")
	flag.Float64Var(&cfg.Rate, "rate", cfg.Rate, "source rate in packets/second")
	flag.IntVar(&cfg.Packets, "packets", cfg.Packets, "packets generated by the source (paper: 10000)")
	flag.IntVar(&cfg.Nodes, "nodes", cfg.Nodes, "number of nodes (paper: 75)")
	flag.IntVar(&cfg.PacketSize, "size", cfg.PacketSize, "packet payload size in bytes (paper: 500)")
	flag.Int64Var(&cfg.Seed, "seed", cfg.Seed, "placement/contention RNG seed")
	drain := flag.Float64("drain", cfg.Drain.Seconds(), "seconds after last generation to let queues flush")
	fieldW := flag.Float64("field-w", cfg.Field.W, "field width in metres")
	fieldH := flag.Float64("field-h", cfg.Field.H, "field height in metres")
	radio := flag.Float64("range", cfg.Phy.CommRange, "radio range in metres")
	flag.IntVar(&cfg.TraceCap, "trace", 0, "print the last N PHY events (frames, tones) after the run")
	flag.BoolVar(&cfg.Audit, "audit", cfg.Audit, "attach the protocol-invariant auditor (passive; disable to benchmark the bare hot path)")
	flag.BoolVar(&cfg.TimerStats, "timerstats", false, "print the timer census after the run: schedule horizons, wheel placement, cancel locations")
	flag.IntVar(&cfg.Shards, "shards", 0, "spatial shards for the parallel engine (0/1 = single engine; mobile scenarios recompute lookahead per epoch)")
	shardEpoch := flag.Float64("shard-epoch", 0, "mobility epoch length in seconds for sharded mobile runs (0 = 1s; shorter epochs shrink the displacement envelope)")
	topoName := flag.String("topo", "connected", "placement generator: connected, uniform, poisson, or metro")
	flag.IntVar(&cfg.Sources, "sources", 0, "multicast source count (0/1 = node 0 only; metro pairs one per district)")
	flag.Float64Var(&cfg.NodeSpacing, "spacing", 0, "poisson minimum node distance in metres (0 = auto)")
	flag.IntVar(&cfg.Districts, "districts", 0, "metro district count (0 = shards, else 1)")
	flag.Float64Var(&cfg.DistrictGap, "gap", 0, "metro inter-district gap in metres (0 = 1.5x interference range)")
	burst := flag.Float64("burst", 0, "Gilbert-Elliott burst-loss severity: fraction of time the channel is in its bad state (0 disables)")
	avail := flag.Float64("avail", 1, "node availability under churn: fraction of time each non-source node is up (1 disables)")
	flag.Uint64Var(&cfg.MaxEvents, "max-events", 0, "watchdog: abort the run after this many events (0 disables)")
	flag.DurationVar(&cfg.MaxWall, "max-wall", 0, "watchdog: abort the run after this much wall-clock time (0 disables)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the run) to this file")
	metricsOut := flag.String("metrics", "", "write the run's final metric registry to this file in Prometheus text format (- for stdout); enables -timerstats collection")
	strict := flag.Bool("strict", true, "exit non-zero when the run fails, is aborted, deadlocks, or the auditor reports violations (-strict=false restores advisory behaviour)")
	flag.Parse()

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pf.Close()
		if err := pprof.StartCPUProfile(pf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	var err error
	cfg.Protocol, err = cli.ParseProtocol(protocol)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	cfg.ShardEpoch = sim.Time(*shardEpoch * float64(sim.Second))
	cfg.Scenario, err = cli.ParseScenario(scenario)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	topo, ok := experiment.TopoKinds[*topoName]
	if !ok {
		fmt.Fprintf(os.Stderr, "rmacsim: unknown -topo %q (connected, uniform, poisson, metro)\n", *topoName)
		return 2
	}
	cfg.Topo = topo
	cfg.Field = geom.Rect{W: *fieldW, H: *fieldH}
	cfg.Drain = sim.Time(*drain * float64(sim.Second))
	cfg.Phy.CommRange = *radio
	cfg.Fault = fault.Config{Burst: fault.BurstAt(*burst), Churn: fault.ChurnAt(*avail)}

	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rmacsim:", err)
		return 2
	}
	printTimers := cfg.TimerStats
	if *metricsOut != "" {
		// The dump includes the timer-census families, so collect them
		// (collection is passive; only -timerstats controls printing).
		cfg.TimerStats = true
	}

	fmt.Printf("rmacsim: %v, %v, %d nodes on %.0fx%.0f m, %.0f pkt/s x %d packets of %d B (seed %d)\n",
		cfg.Protocol, cfg.Scenario, cfg.Nodes, cfg.Field.W, cfg.Field.H, cfg.Rate, cfg.Packets, cfg.PacketSize, cfg.Seed)

	// ^C aborts the engine cooperatively: the run returns with its
	// simulated prefix, every section below still prints, files close.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()

	start := time.Now()
	res := experiment.RunCtx(ctx, cfg)
	elapsed := time.Since(start)

	if res.Failed {
		fmt.Fprintln(os.Stderr, "rmacsim: run failed:", res.FailReason)
		if res.Stack != "" {
			fmt.Fprintln(os.Stderr, res.Stack)
		}
		return 1
	}
	if res.Aborted {
		fmt.Printf("\nWATCHDOG: %s — metrics below cover the simulated prefix only\n", res.AbortReason)
	}

	if *memProfile != "" {
		mf, err := os.Create(*memProfile)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		runtime.GC() // materialize the post-run live set
		if err := pprof.WriteHeapProfile(mf); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		mf.Close()
	}

	fmt.Printf("\nApplication metrics (Figures 7, 9):\n")
	fmt.Printf("  generated packets        %d\n", res.Metrics.Generated)
	fmt.Printf("  unique receptions        %d of %d supposed\n",
		res.Metrics.Receptions, res.Metrics.Generated*uint64(cfg.Nodes-1))
	fmt.Printf("  packet delivery ratio    %.4f\n", res.Delivery)
	fmt.Printf("  avg end-to-end delay     %.4f s (max %.4f s)\n", res.AvgDelay, res.Metrics.DelayMax.Seconds())
	fmt.Printf("  duplicate deliveries     %d\n", res.Metrics.Duplicates)

	fmt.Printf("\nPer-node MAC metrics over %d non-leaf nodes (Figures 8, 10, 11):\n", res.NonLeafCount)
	fmt.Printf("  avg packet drop ratio    %.4f\n", res.AvgDropRatio)
	fmt.Printf("  avg retransmission ratio %.4f\n", res.AvgRetxRatio)
	fmt.Printf("  avg tx overhead ratio    %.4f\n", res.AvgOverheadRatio)

	if cfg.Protocol == experiment.RMAC {
		l := res.MRTSLens.Summarize()
		a := res.AbortRatios.Summarize()
		fmt.Printf("\nRMAC specifics (Figures 12, 13):\n")
		fmt.Printf("  MRTS length (bytes)      avg %.1f  p99 %.0f  max %.0f  (n=%d)\n", l.Mean, l.P99, l.Max, l.N)
		fmt.Printf("  MRTS abortion ratio      avg %.5f  p99 %.5f  max %.5f\n", a.Mean, a.P99, a.Max)
	}

	if cfg.Fault.Enabled() {
		fmt.Printf("\nImpairment layer:\n")
		fmt.Printf("  burst-corrupted frames   %d (%d bad-state entries)\n", res.Fault.BurstErrors, res.Fault.BadEntries)
		fmt.Printf("  node crashes             %d (%d recoveries)\n", res.Crashes, res.Fault.Recoveries)
	}
	if len(res.Deadlocks) > 0 {
		fmt.Printf("\nLIVENESS: %d node(s) ended non-idle with nothing pending:\n", len(res.Deadlocks))
		for _, d := range res.Deadlocks {
			fmt.Printf("  node %d stuck in %s\n", d.Node, d.State)
		}
	}
	if res.ViolationCount > 0 {
		fmt.Printf("\nAUDIT: %d invariant violation(s):\n", res.ViolationCount)
		for _, v := range res.Violations {
			fmt.Printf("  %v\n", v)
		}
	} else if cfg.Audit {
		fmt.Printf("\nAudit: clean (0 invariant violations)\n")
	}

	if res.TimerStats != nil && printTimers {
		printTimerStats(res.TimerStats)
	}

	if *metricsOut != "" {
		if err := writeMetrics(*metricsOut, &res); err != nil {
			fmt.Fprintln(os.Stderr, "rmacsim:", err)
			return 1
		}
	}

	if len(res.Shards) > 0 {
		fmt.Printf("\nSharded engine (%d shards):\n", len(res.Shards))
		for _, ss := range res.Shards {
			fmt.Printf("  shard %d: %d nodes, %d events, %d windows, %d msgs out / %d in, %d stalls (%v waiting)\n",
				ss.Shard, ss.Nodes, ss.Events, ss.Windows, ss.MsgsOut, ss.MsgsIn, ss.Stalls, ss.StallWall.Round(time.Millisecond))
			if ss.Epochs > 0 {
				fmt.Printf("           %d epoch rollovers, %d ghost installs / %d removals\n",
					ss.Epochs, ss.GhostAdds, ss.GhostDels)
			}
		}
	}

	fmt.Printf("\nFinal tree (§4.1.1): %d/%d reachable, hops avg %.2f p99 %.0f, children avg %.2f p99 %.0f\n",
		res.Tree.Reachable, cfg.Nodes, res.Tree.Hops.Mean, res.Tree.Hops.P99,
		res.Tree.Children.Mean, res.Tree.Children.P99)
	fmt.Printf("Simulated %v in %v wall (%d events)\n", cfg.Horizon(), elapsed.Round(time.Millisecond), res.Events)

	if res.Trace != nil {
		fmt.Printf("\nPHY trace (last %d of %d events):\n", res.Trace.Len(), res.Trace.Total())
		if _, err := res.Trace.WriteTo(os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, err)
		}
	}

	if *strict {
		switch {
		case res.Aborted:
			fmt.Fprintln(os.Stderr, "rmacsim: strict: run aborted —", res.AbortReason)
			return 1
		case res.ViolationCount > 0:
			fmt.Fprintf(os.Stderr, "rmacsim: strict: %d invariant violation(s)\n", res.ViolationCount)
			return 1
		case len(res.Deadlocks) > 0:
			fmt.Fprintf(os.Stderr, "rmacsim: strict: %d node(s) deadlocked\n", len(res.Deadlocks))
			return 1
		}
	}
	return 0
}

// writeMetrics dumps the run's metric registry — the same families a
// served sweep exposes on /metrics — in Prometheus text format.
func writeMetrics(path string, res *experiment.RunResult) error {
	reg := experiment.MetricsRegistry(res)
	if path == "-" {
		fmt.Println()
		_, err := reg.WriteTo(os.Stdout)
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := reg.WriteTo(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTimerStats renders the timer census: where the scheduler placed
// events (wheel level vs heap), where cancels found them, and the log2
// horizon histogram of schedules and cancels.
func printTimerStats(ts *sim.TimerStats) {
	sched, canc := ts.TotalScheduled(), ts.TotalCancelled()
	fmt.Printf("\nTimer census (%d scheduled, %d cancelled = %.1f%%):\n",
		sched, canc, 100*float64(canc)/float64(max(sched, 1)))
	fmt.Printf("  placement:\n")
	for i, n := range ts.Placed {
		if n == 0 {
			continue
		}
		fmt.Printf("    %-26s %10d  %5.1f%%\n", sim.PlaceClassName(i), n, 100*float64(n)/float64(sched))
	}
	if canc > 0 {
		fmt.Printf("  cancels found:\n")
		for i, n := range ts.CancelledIn {
			if n == 0 {
				continue
			}
			fmt.Printf("    %-26s %10d  %5.1f%%\n", sim.CancelClassName(i), n, 100*float64(n)/float64(canc))
		}
	}
	fmt.Printf("  horizon histogram (delta at schedule / remaining at cancel):\n")
	for b := range ts.Scheduled {
		s, c := ts.Scheduled[b], ts.Cancelled[b]
		if s == 0 && c == 0 {
			continue
		}
		lo, hi := sim.BucketRange(b)
		fmt.Printf("    [%9v, %9v]  sched %10d   cancel %10d\n",
			lo, hi, s, c)
	}
}
