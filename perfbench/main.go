// Command perfbench is the repository's benchmark. It runs one named
// workload through experiment.Run or experiment.RunSweep, checks the
// results, and prints the metrics BENCHMARK.json names as one JSON object
// on the last line of standard output. Build and run it from the
// repository root with
//
//	bash perfbench/run.sh --workload fig75 --seed 1 --seconds 30 --trace 0
//
// --trace 0 repeats the untraced workload for --seconds and prints the
// end-to-end metrics: medians over the repetitions of wall time and bytes
// allocated, the peak RSS, and the set-up time. --trace 1 runs the
// workload once untraced, then once on a span-wrapped single-engine stack
// under a CPU profile, and prints the per-layer metrics. Both modes print
// a host stamp and a digest of the runs' fingerprints first.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"sync"
	"syscall"
	"time"

	"rmac/internal/experiment"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output contract.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func (r *result) set(name string, v float64, unit string) { r.Metrics[name] = metric{v, unit} }

// bench measures one workload and logs its host stamp, fingerprint digest
// and any correctness failure to out.
type bench struct {
	w       workload
	seconds float64
	out     io.Writer
	res     result
	fp      map[string]string // run key → fingerprint of the first execution
}

func main() {
	name := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", "))
	seed := flag.Int64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement time of an end-to-end run")
	traced := flag.Int("trace", 0, "0: end-to-end metrics, 1: per-layer metrics")
	flag.Parse()
	w, err := newWorkload(*name, *seed, fullPackets[*name])
	if err == nil && *traced != 0 && *traced != 1 {
		err = fmt.Errorf("--trace must be 0 or 1, have %d", *traced)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	b := newBench(w, *seed, *seconds, os.Stdout)
	if *traced == 1 {
		b.perLayer()
	} else {
		b.endToEnd()
	}
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("%s\n", line)
}

func newBench(w workload, seed int64, seconds float64, out io.Writer) *bench {
	b := &bench{w: w, seconds: seconds, out: out,
		res: result{Correct: true, Metrics: map[string]metric{}}}
	stamp, _ := json.Marshal(map[string]any{
		"workload":   w.name,
		"seed":       seed,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
	})
	fmt.Fprintf(out, "host %s\n", stamp)
	return b
}

// fail marks the result incorrect and says why.
func (b *bench) fail(format string, args ...any) {
	b.res.Correct = false
	fmt.Fprintf(b.out, "incorrect: %s\n", fmt.Sprintf(format, args...))
}

// count adds runs to the attempted and failed operations.
func (b *bench) count(runs []experiment.RunResult) {
	b.res.Attempted += len(runs)
	for i := range runs {
		r := &runs[i]
		if runFailed(r) {
			b.res.Failed++
			fmt.Fprintf(b.out, "failed run %s: failed=%v aborted=%v violations=%d deadlocks=%d %s\n",
				runKey(r.Config), r.Failed, r.Aborted, r.ViolationCount, len(r.Deadlocks), r.FailReason)
		}
	}
}

// record counts an execution's runs, applies the output checks, and
// checks that every run fingerprints as it did in the first execution.
func (b *bench) record(op opResult) {
	b.count(op.runs)
	if why := b.w.checkOp(op); why != "" {
		b.fail("%s", why)
	}
	if b.fp == nil {
		b.fp = map[string]string{}
		h := sha256.New()
		for i := range op.runs {
			k, f := runKey(op.runs[i].Config), op.runs[i].Fingerprint()
			b.fp[k] = f
			fmt.Fprintf(h, "%s %s\n", k, f)
		}
		fmt.Fprintf(b.out, "fingerprint %s %s\n", b.w.name, hex.EncodeToString(h.Sum(nil)))
		return
	}
	for i := range op.runs {
		k := runKey(op.runs[i].Config)
		if f := op.runs[i].Fingerprint(); f != b.fp[k] {
			b.fail("run %s fingerprint %s, first execution %s", k, f, b.fp[k])
		}
	}
}

// endToEnd repeats the workload for the measurement time (at least three
// times) and reports medians, then measures set-up time.
func (b *bench) endToEnd() {
	const minReps = 3
	budget := time.Duration(b.seconds * float64(time.Second))
	start := time.Now()
	var walls, allocs []float64
	var first opResult
	for len(walls) < minReps || time.Since(start)+time.Duration(median(walls)*float64(time.Second)) <= budget {
		op := b.w.run()
		b.record(op)
		if first.runs == nil {
			first = op
		}
		walls = append(walls, op.wall.Seconds())
		allocs = append(allocs, float64(op.alloc)/1e6)
		fmt.Fprintf(b.out, "op %d wall %.4fs alloc %.2fMB\n", len(walls), walls[len(walls)-1], allocs[len(allocs)-1])
	}
	setup, _ := b.setup(configs(first))
	b.res.set("wall_s", median(walls), "s")
	b.res.set("setup_s", setup, "s")
	b.res.set("alloc_mb", median(allocs), "MB")
	b.res.set("peak_rss_mb", peakRSSMB(), "MB")
}

// setup measures set-up time over cfgs; a build that fails counts as a
// failed operation.
func (b *bench) setup(cfgs []experiment.Config) (setup, place float64) {
	setup, place, failed := measureSetup(cfgs, setupReps)
	b.res.Attempted += len(cfgs) * setupReps
	b.res.Failed += failed
	return setup, place
}

// perLayer runs the workload once untraced and once traced, checks the
// traced run against the untraced one, and reports the per-layer split.
func (b *bench) perLayer() {
	ref := b.w.run()
	b.record(ref)
	setup, place := b.setup(configs(ref))

	// The traced stack is a single engine: sharded workloads are traced
	// on the same placement with Shards=1, against an untraced
	// single-engine run of that configuration.
	single := ref
	cfgs := configs(ref)
	if b.w.base.Shards > 1 {
		for i := range cfgs {
			cfgs[i].Shards = 1
		}
		single = opResult{runs: make([]experiment.RunResult, len(cfgs))}
		start := time.Now()
		forEach(len(cfgs), b.workers(), func(i int) { single.runs[i] = experiment.Run(cfgs[i]) })
		single.wall = time.Since(start)
		b.count(single.runs)
	}

	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		b.fail("cpu profile: %v", err)
	}
	traced := make([]*tracedRun, len(cfgs))
	errs := make([]error, len(cfgs))
	start := time.Now()
	forEach(len(cfgs), b.workers(), func(i int) { traced[i], errs[i] = runTraced(cfgs[i]) })
	tracedWall := time.Since(start)
	pprof.StopCPUProfile()

	var t tracer
	var l layerTotals
	for i, tr := range traced {
		if errs[i] != nil {
			b.fail("%s: %v", runKey(cfgs[i]), errs[i])
			continue
		}
		if why := tr.matches(&single.runs[i]); why != "" {
			b.fail("traced %s differs from experiment.Run: %s", runKey(cfgs[i]), why)
		}
		t.merge(&tr.t)
		l.add(tr)
	}

	// Boundary times: *_s is self time (nested spans excluded), *_ns the
	// mean inclusive time per call.
	r := &b.res
	h, snd, bcn, dlv, obs, pos := &t.spans[spanHandler], &t.spans[spanSend], &t.spans[spanBeacon], &t.spans[spanDeliver], &t.spans[spanObs], &t.spans[spanPosition]
	r.set("sim.events", float64(l.events), "count")
	r.set("sim.arena_cap", float64(l.arenaCap), "count")
	r.set("sim.run_s", l.run.Seconds(), "s")
	r.set("engine.residual_s", (l.run - t.root).Seconds(), "s")
	m := &l.totals.Medium
	r.set("phy.tx", float64(m.Transmissions), "count")
	r.set("phy.decoded", float64(m.FramesDecoded), "count")
	r.set("phy.corrupt", float64(m.FramesCorrupt), "count")
	r.set("phy.decode_ratio", ratio(m.FramesDecoded, m.FramesDecoded+m.FramesCorrupt), "ratio")
	r.set("phy.tone_on", float64(m.ToneActivation), "count")
	r.set("phy.upcalls", float64(h.count), "count")
	r.set("mac.handler_s", h.self.Seconds(), "s")
	r.set("mac.handler_ns", meanNS(h), "ns")
	r.set("mac.handler_p99_ns", h.quantile(0.99), "ns")
	r.set("mac.send_calls", float64(snd.count), "count")
	r.set("mac.send_s", snd.self.Seconds(), "s")
	r.set("mac.retx", float64(l.totals.Retransmissions), "count")
	r.set("mac.queue_drops", float64(l.totals.QueueDrops), "count")
	r.set("mac.delivered_ratio", ratio(l.totals.ReliableDelivered, l.totals.ReliableToTransmit), "ratio")
	r.set("mac.mrts_sent", float64(l.totals.MRTSSent), "count")
	r.set("mac.mrts_aborted", float64(l.totals.MRTSAborted), "count")
	r.set("routing.beacon_calls", float64(bcn.count), "count")
	r.set("routing.beacon_s", bcn.self.Seconds(), "s")
	r.set("routing.beacon_ns", meanNS(bcn), "ns")
	r.set("app.deliver_calls", float64(dlv.count), "count")
	r.set("app.deliver_s", dlv.self.Seconds(), "s")
	r.set("app.deliver_ns", meanNS(dlv), "ns")
	r.set("app.dup_ratio", ratio(l.totals.Duplicates, l.totals.Duplicates+l.totals.Receptions), "ratio")
	r.set("audit.obs_calls", float64(obs.count), "count")
	r.set("audit.obs_s", obs.self.Seconds(), "s")
	r.set("mobility.position_calls", float64(pos.count), "count")
	r.set("mobility.position_s", pos.self.Seconds(), "s")
	r.set("setup.placement_s", place, "s")
	r.set("setup.build_s", setup-place, "s")
	r.set("sweep.points", float64(len(ref.runs)), "count")
	r.set("sweep.tail_s", b.w.tailSeconds(ref), "s")
	b.shardMetrics(ref)
	fracs, err := foldProfile(prof.Bytes())
	if err != nil {
		b.fail("cpu profile: %v", err)
	}
	for _, layer := range cpuLayers {
		r.set("cpu."+layer+"_frac", fracs[layer], "ratio")
	}
	r.set("trace.overhead_s", (tracedWall - single.wall).Seconds(), "s")
	t.write(b.out)
}

// shardMetrics reports the sync layer from the sharded run's own
// measurements; an unsharded workload reports zeros.
func (b *bench) shardMetrics(ref opResult) {
	var windows, msgs, stalls, events, maxEvents uint64
	var stall time.Duration
	shards := 0
	for i := range ref.runs {
		for _, s := range ref.runs[i].Shards {
			shards++
			windows += s.Windows
			msgs += s.MsgsOut
			stalls += s.Stalls
			stall += s.StallWall
			events += s.Events
			if s.Events > maxEvents {
				maxEvents = s.Events
			}
		}
	}
	r := &b.res
	r.set("shard.windows", float64(windows), "count")
	r.set("shard.events_per_window", ratio(events, windows), "count")
	r.set("shard.msgs", float64(msgs), "count")
	r.set("shard.stalls", float64(stalls), "count")
	r.set("shard.stall_s", stall.Seconds(), "s")
	stallFrac, imbalance := 0.0, 0.0
	if shards > 0 {
		stallFrac = stall.Seconds() / (float64(shards) * ref.wall.Seconds())
		imbalance = ratio(maxEvents*uint64(shards), events)
	}
	r.set("shard.stall_frac", stallFrac, "ratio")
	r.set("shard.imbalance", imbalance, "ratio")
}

// workers is the number of simulations run at once: the sweep's
// parallelism, or one for a single run.
func (b *bench) workers() int {
	if b.w.sweep != nil {
		return b.w.sweep.Parallelism
	}
	return 1
}

// layerTotals sums the traced runs' counters.
type layerTotals struct {
	events   uint64
	arenaCap int
	run      time.Duration
	totals   experiment.RunTotals
}

func (l *layerTotals) add(tr *tracedRun) {
	l.events += tr.events
	if tr.totals.ArenaCap > l.arenaCap {
		l.arenaCap = tr.totals.ArenaCap
	}
	l.run += tr.runTime
	t, o := &l.totals, &tr.totals
	t.Retransmissions += o.Retransmissions
	t.QueueDrops += o.QueueDrops
	t.ReliableDelivered += o.ReliableDelivered
	t.ReliableToTransmit += o.ReliableToTransmit
	t.MRTSSent += o.MRTSSent
	t.MRTSAborted += o.MRTSAborted
	t.Medium.Transmissions += o.Medium.Transmissions
	t.Medium.FramesDecoded += o.Medium.FramesDecoded
	t.Medium.FramesCorrupt += o.Medium.FramesCorrupt
	t.Medium.ToneActivation += o.Medium.ToneActivation
	t.Receptions += o.Receptions
	t.Duplicates += o.Duplicates
}

// write logs the per-boundary aggregates.
func (t *tracer) write(w io.Writer) {
	names := [numSpans]string{"phy->mac handler", "mac send", "mac->routing beacon", "mac->app deliver", "medium->audit obs", "mobility position"}
	for k, name := range names {
		s := &t.spans[k]
		fmt.Fprintf(w, "span %-20s calls %10d  total %9.4fs  self %9.4fs  p50 %7.0fns  p99 %7.0fns\n",
			name, s.count, s.total.Seconds(), s.self.Seconds(), s.quantile(0.5), s.quantile(0.99))
	}
}

// forEach runs fn(0..n-1) on up to workers goroutines and waits for all.
func forEach(n, workers int, fn func(i int)) {
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

func meanNS(s *spanAgg) float64 {
	if s.count == 0 {
		return 0
	}
	return float64(s.total.Nanoseconds()) / float64(s.count)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// cpuModel reads the host's CPU model name, or "unknown".
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
