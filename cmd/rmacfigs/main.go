// Command rmacfigs regenerates every figure of the paper's evaluation
// section (Figures 7–13): it sweeps source rate × mobility scenario ×
// protocol with multiple random placements per point, prints each figure
// as the three panels the paper plots, and optionally writes a CSV.
//
// The defaults are scaled down for a quick run; the paper's full scale is
//
//	rmacfigs -packets 10000 -seeds 10
//
// which takes correspondingly longer (runs execute in parallel).
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"rmac/internal/cli"
	"rmac/internal/experiment"
	"rmac/internal/sim"
)

func main() { os.Exit(run()) }

// run is main with an exit code, so deferred cleanup (profiles, signal
// handler teardown) executes before the process exits.
func run() int {
	base := experiment.DefaultConfig()
	figsFlag := flag.String("figures", "all", "comma-separated figure IDs (fig7..fig13) or 'all'")
	ratesFlag := flag.String("rates", "", "comma-separated source rates in pkt/s (default: the paper's 5,10,20,40,60,80,100,120)")
	scenariosFlag := flag.String("scenarios", "all", "comma-separated scenarios (stationary,speed1,speed2) or 'all'")
	seeds := flag.Int("seeds", 3, "random placements per data point (paper: 10)")
	packets := flag.Int("packets", 300, "packets per run (paper: 10000)")
	nodes := flag.Int("nodes", base.Nodes, "number of nodes")
	parallel := flag.Int("parallel", 0, "concurrent simulations (0 = GOMAXPROCS)")
	csvPath := flag.String("csv", "", "write all sweep points to this CSV file")
	ascii := flag.Bool("ascii", false, "also render each figure panel as a terminal plot")
	jsonPath := flag.String("json", "", "write all sweep points to this JSON file")
	protoFlag := flag.String("protocols", "", "comma-separated protocols to sweep ("+cli.ProtocolNames(",")+"); default: the paper's figure set")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	resilience := flag.Bool("resilience", false, "run the resilience sweep (delivery vs burst loss and node churn) instead of the paper figures")
	flag.IntVar(&base.Shards, "shards", 0, "spatial shards per run for the parallel engine (0/1 = single engine; mobile scenarios recompute lookahead per epoch)")
	shardEpoch := flag.Float64("shard-epoch", 0, "mobility epoch length in seconds for sharded mobile runs (0 = 1s)")
	topoName := flag.String("topo", "connected", "placement generator: connected, uniform, poisson, or metro")
	flag.IntVar(&base.Sources, "sources", 0, "multicast source count per run (0/1 = node 0 only)")
	flag.Uint64Var(&base.MaxEvents, "max-events", 0, "watchdog: abort any single run after this many events (0 disables)")
	flag.DurationVar(&base.MaxWall, "max-wall", 0, "watchdog: abort any single run after this much wall-clock time (0 disables)")
	flag.BoolVar(&base.Audit, "audit", base.Audit, "attach the protocol-invariant auditor to every run (passive; disable to benchmark the bare hot path)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile of the whole sweep to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile (after the sweep) to this file")
	strict := flag.Bool("strict", true, "exit non-zero when any run fails or is aborted, or the auditor reports violations (-strict=false restores advisory behaviour)")
	flag.Parse()
	base.ShardEpoch = sim.Time(*shardEpoch * float64(sim.Second))

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
	if *memProfile != "" {
		defer func() {
			mf, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return
			}
			runtime.GC() // materialize the post-sweep live set
			if err := pprof.WriteHeapProfile(mf); err != nil {
				fmt.Fprintln(os.Stderr, err)
			}
			mf.Close()
		}()
	}

	base.Packets = *packets
	base.Nodes = *nodes
	topo, ok := experiment.TopoKinds[*topoName]
	if !ok {
		fmt.Fprintf(os.Stderr, "rmacfigs: unknown -topo %q (connected, uniform, poisson, metro)\n", *topoName)
		return 2
	}
	base.Topo = topo

	if err := base.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "rmacfigs:", err)
		return 2
	}

	figs, err := selectFigures(*figsFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	rates := experiment.PaperRates
	if *ratesFlag != "" {
		rates, err = cli.ParseRates(*ratesFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	scenarios, err := cli.ParseScenarios(*scenariosFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	// ^C stops dispatching further runs and aborts in-flight engines
	// cooperatively; completed points still aggregate, tables and files
	// are still written.
	ctx, stopSignals := cli.SignalContext()
	defer stopSignals()

	if *resilience {
		protocols := []experiment.Protocol{experiment.RMAC, experiment.BMMM, experiment.BMW}
		if *protoFlag != "" {
			protocols, err = cli.ParseProtocols(*protoFlag)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 2
			}
		}
		return runResilience(ctx, base, protocols, *seeds, *parallel, *csvPath, *quiet, *strict)
	}

	// One sweep covers every requested figure: figures differ only in
	// which metric they read from the aggregated points.
	protocols := []experiment.Protocol{experiment.RMAC}
	for _, f := range figs {
		if len(f.Protocols) > 1 {
			protocols = []experiment.Protocol{experiment.RMAC, experiment.BMMM}
			break
		}
	}
	if *protoFlag != "" {
		protocols, err = cli.ParseProtocols(*protoFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}

	sweep := experiment.Sweep{
		Base:        base,
		Protocols:   protocols,
		Scenarios:   scenarios,
		Rates:       rates,
		Seeds:       *seeds,
		Parallelism: *parallel,
	}
	total := sweep.Cells() * *seeds
	fmt.Printf("rmacfigs: %d simulations (%d nodes, %d packets each), figures %s\n",
		total, base.Nodes, base.Packets, *figsFlag)
	if !*quiet {
		sweep.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
		}
	}
	start := time.Now()
	points := experiment.RunSweepCtx(ctx, sweep)
	if !*quiet {
		fmt.Fprintf(os.Stderr, "\rcompleted %d runs in %v\n", total, time.Since(start).Round(time.Second))
	}
	var totalViolations uint64
	failedRuns, abortedRuns := 0, 0
	for _, p := range points {
		totalViolations += p.Violations
		failedRuns += p.FailedRuns
		abortedRuns += p.AbortedRuns
	}
	if totalViolations > 0 {
		fmt.Fprintf(os.Stderr, "AUDIT: %d invariant violation(s) across the sweep — figures below measure a non-conforming stack\n", totalViolations)
	}

	for _, f := range figs {
		experiment.WriteFigureTable(os.Stdout, f, points, scenarios)
		if *ascii {
			for _, sc := range scenarios {
				experiment.WriteFigureASCII(os.Stdout, f, points, sc)
			}
		}
	}

	if *csvPath != "" {
		if err := writeFile(*csvPath, func(w *os.File) error { return experiment.WriteCSV(w, points) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		if err := writeFile(*jsonPath, func(w *os.File) error { return experiment.WriteJSON(w, points) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *strict && (totalViolations > 0 || failedRuns > 0 || abortedRuns > 0) {
		fmt.Fprintf(os.Stderr, "rmacfigs: strict: %d failed, %d aborted, %d violation(s)\n",
			failedRuns, abortedRuns, totalViolations)
		return 1
	}
	return 0
}

// runResilience executes the burst-loss and churn ladders for the given
// protocols and renders one table per impairment level (plus CSV when
// requested). Failed runs are reported per cell rather than poisoning the
// sweep, so a crash in one configuration still yields the other curves.
func runResilience(ctx context.Context, base experiment.Config, protocols []experiment.Protocol, seeds, parallel int, csvPath string, quiet, strict bool) int {
	levels := append(experiment.DefaultBurstLevels(), experiment.DefaultChurnLevels()...)
	sweep := experiment.ResilienceSweep{
		Base:        base,
		Protocols:   protocols,
		Levels:      levels,
		Seeds:       seeds,
		Parallelism: parallel,
	}
	total := len(protocols) * len(levels) * seeds
	fmt.Printf("rmacfigs: resilience sweep, %d simulations (%d nodes, %d packets each)\n",
		total, base.Nodes, base.Packets)
	if !quiet {
		sweep.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\r%d/%d runs", done, total)
		}
	}
	start := time.Now()
	points := experiment.RunResilienceSweepCtx(ctx, sweep)
	if !quiet {
		fmt.Fprintf(os.Stderr, "\rcompleted %d runs in %v\n", total, time.Since(start).Round(time.Second))
	}

	experiment.WriteResilienceTable(os.Stdout, points)
	failed, aborted := 0, 0
	for _, p := range points {
		failed += p.FailedRuns
		aborted += p.AbortedRuns
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rmacfigs: %d run(s) failed and were excluded from the averages\n", failed)
	}

	if csvPath != "" {
		if err := writeFile(csvPath, func(w *os.File) error { return experiment.WriteResilienceCSV(w, points) }); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Printf("wrote %s\n", csvPath)
	}
	if failed > 0 || (strict && aborted > 0) {
		return 1
	}
	return 0
}

func writeFile(path string, fn func(*os.File) error) error {
	out, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := fn(out); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

func selectFigures(spec string) ([]experiment.Figure, error) {
	if spec == "all" {
		return experiment.Figures(), nil
	}
	var out []experiment.Figure
	for _, id := range strings.Split(spec, ",") {
		f, err := experiment.FigureByID(strings.TrimSpace(id))
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
