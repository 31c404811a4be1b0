package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"rmac/internal/experiment"
	"rmac/internal/geom"
	"rmac/internal/sim"
	"rmac/internal/topo"
)

// workload is one named input of the benchmark. A sweep workload runs its
// grid through experiment.RunSweep; the others run base through
// experiment.Run.
type workload struct {
	name  string
	base  experiment.Config
	sweep *experiment.Sweep
}

// workloadNames lists the workloads in BENCHMARK.json order.
var workloadNames = []string{"fig75", "metro2k"}

// fullPackets is each workload's per-source packet count in a benchmark
// run; the self-test passes smaller counts.
var fullPackets = map[string]int{"fig75": 300, "metro2k": 32}

// newWorkload builds the named workload's configuration from seed.
// Every field the traced run's network build reads (topology, districts,
// gap, sources) is set here explicitly rather than left to experiment's
// defaults.
//
// The placement of each workload is fixed, so every seed measures the same
// network and the run-to-run spread is the host's, not the topology's: on
// a 1,000-node uniform placement, placements alone moved bytes allocated
// by 16%. The seed enters through the traffic start instead: the sources
// start at a seed-drawn instant in [10 s, 10.1 s), a different phase
// against the 500 ms beacon schedule and so a different event sequence.
// The window is short so the horizon, and with it the beacon work, stays
// within 1% across seeds. (fig75 could not take the seed as a placement
// seed anyway: RunSweep derives each point's seed from its grid position,
// the paper's identical-placement rule.)
func newWorkload(name string, seed int64, packets int) (workload, error) {
	cfg := experiment.DefaultConfig()
	cfg.Packets = packets
	cfg.Sources = 1
	cfg.Seed = 1
	cfg.Warmup = 10*sim.Second + sim.Time(rand.New(rand.NewSource(seed)).Int63n(int64(100*sim.Millisecond)))
	switch name {
	case "fig75":
		cfg.Topo = experiment.TopoConnected
		return workload{name: name, base: cfg, sweep: &experiment.Sweep{
			Base:        cfg,
			Protocols:   []experiment.Protocol{experiment.RMAC, experiment.BMMM},
			Scenarios:   []experiment.Scenario{experiment.Stationary, experiment.Speed2},
			Rates:       []float64{20, 80},
			Seeds:       2,
			Parallelism: runtime.NumCPU(),
		}}, nil
	case "metro2k":
		cfg.Nodes = 2000
		cfg.Field = geom.Rect{W: 4000, H: 850}
		cfg.Topo = experiment.TopoMetro
		cfg.Districts = 8
		cfg.DistrictGap = 112.5 // 1.5 × the 75 m interference range
		cfg.Sources = 8
	default:
		return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames)
	}
	cfg.Shards = 2
	cfg.Rate = 40
	cfg.Drain = sim.Second
	return workload{name: name, base: cfg}, nil
}

// opResult is one execution of a workload.
type opResult struct {
	wall  time.Duration
	alloc uint64 // bytes allocated, runtime.MemStats.TotalAlloc delta
	runs  []experiment.RunResult
	// points and done are set for sweeps: the aggregated cells and the
	// completion instant of every point, in completion order.
	points []experiment.Point
	done   []time.Time
}

// run executes the workload once through the public entry points.
func (w workload) run() opResult {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	var op opResult
	start := time.Now()
	if w.sweep != nil {
		s := *w.sweep
		var mu sync.Mutex
		s.Progress = func(int, int) {
			now := time.Now()
			mu.Lock()
			op.done = append(op.done, now)
			mu.Unlock()
		}
		op.points = experiment.RunSweep(s)
		op.wall = time.Since(start)
		for _, p := range op.points {
			op.runs = append(op.runs, p.Runs...)
		}
	} else {
		op.runs = []experiment.RunResult{experiment.Run(w.base)}
		op.wall = time.Since(start)
	}
	runtime.ReadMemStats(&ms)
	op.alloc = ms.TotalAlloc - before
	sort.Slice(op.runs, func(i, j int) bool { return runKey(op.runs[i].Config) < runKey(op.runs[j].Config) })
	return op
}

// runKey names one simulated configuration within a workload.
func runKey(c experiment.Config) string {
	return fmt.Sprintf("%v/%v/%g/%d", c.Protocol, c.Scenario, c.Rate, c.Seed)
}

// runFailed reports whether a run counts as a failed operation: it did not
// finish, or it broke a protocol invariant.
func runFailed(r *experiment.RunResult) bool {
	return r.Failed || r.Aborted || r.ViolationCount > 0 || len(r.Deadlocks) > 0
}

// checkOp applies the workload's output checks to one execution and
// returns the reason it is wrong, or "". Aggregate delivery is gated only
// on fig75: with several sources each node joins one source's tree, so
// metro2k reads about 1/Sources by construction.
func (w workload) checkOp(op opResult) string {
	if w.sweep == nil {
		return ""
	}
	for _, p := range op.points {
		if p.Protocol == experiment.RMAC && p.Scenario == experiment.Stationary && p.Rate == 20 {
			if p.Delivery < 0.99 {
				return fmt.Sprintf("fig75 RMAC/stationary/20 delivery %.4f < 0.99", p.Delivery)
			}
			return ""
		}
	}
	return "fig75 sweep has no RMAC/stationary/20 cell"
}

// tailSeconds is the time from the first idle sweep worker to the last
// completion: once fewer points remain than workers, a worker idles.
func (w workload) tailSeconds(op opResult) float64 {
	if w.sweep == nil || len(op.done) == 0 {
		return 0
	}
	t := append([]time.Time(nil), op.done...)
	sort.Slice(t, func(i, j int) bool { return t[i].Before(t[j]) })
	idle := len(t) - w.sweep.Parallelism
	if idle < 0 {
		idle = 0
	}
	return t[len(t)-1].Sub(t[idle]).Seconds()
}

// placement runs cfg's placement generator exactly as experiment.Run seeds
// it, for the traced run and the setup split.
func placement(cfg experiment.Config) topo.Placement {
	rng := rand.New(rand.NewSource(cfg.Seed ^ experiment.PlacementSeedMix))
	switch cfg.Topo {
	case experiment.TopoMetro:
		return topo.MetroPlacement(cfg.Nodes, cfg.Districts, cfg.Field, cfg.DistrictGap, rng)
	default:
		p, _ := topo.ConnectedRandomPlacement(cfg.Nodes, cfg.Field, cfg.Phy.CommRange, rng, 500)
		return p
	}
}

// setupReps is how many times each configuration is built for the setup
// metrics. Single builds of 0.3–11 ms are too noisy to use; the median of
// this many, each after a forced GC, is steady.
const setupReps = 41

// measureSetup times zero-horizon experiment.Run calls (network build up
// to the first simulated event) and the placement generator alone for
// each configuration, and returns the sums over configurations of the
// per-configuration medians, in seconds. failed counts builds that did
// not produce a result.
//
// Builds are timed in process CPU time: they run on one goroutine, so on
// an unshared core that equals their wall time, but unlike wall time it
// does not grow when the hypervisor lends the core to another guest,
// which moved single builds here by up to 50%.
func measureSetup(cfgs []experiment.Config, reps int) (setup, place float64, failed int) {
	for _, c := range cfgs {
		z := c
		z.Packets, z.Warmup, z.Drain = 0, 0, 0
		experiment.Run(z) // warm caches and the heap before timing
		builds := make([]float64, reps)
		places := make([]float64, reps)
		for k := 0; k < reps; k++ {
			runtime.GC()
			t0 := cpuTime()
			r := experiment.Run(z)
			builds[k] = (cpuTime() - t0).Seconds()
			if r.Failed || r.Aborted {
				failed++
			}
			runtime.GC()
			t0 = cpuTime()
			placement(c)
			places[k] = (cpuTime() - t0).Seconds()
		}
		setup += median(builds)
		place += median(places)
	}
	return setup, place, failed
}

// configs lists the configurations an execution simulated.
func configs(op opResult) []experiment.Config {
	out := make([]experiment.Config, len(op.runs))
	for i := range op.runs {
		out[i] = op.runs[i].Config
	}
	return out
}

// cpuTime is the CPU time the process has used, user and system.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
