package experiment

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"slices"

	"rmac/internal/app"
	"rmac/internal/audit"
	"rmac/internal/fault"
	"rmac/internal/frame"
	"rmac/internal/geom"
	"rmac/internal/mac"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/routing"
	"rmac/internal/sim"
	"rmac/internal/stats"
	"rmac/internal/topo"
	"rmac/internal/trace"
)

// PlacementSeedMix decorrelates the placement RNG stream from the
// engine's contention stream while keeping both functions of Config.Seed.
const PlacementSeedMix = 0x5deece66d

// RunResult carries everything a run measured: the network-wide
// application metrics and the per-node MAC aggregates behind each figure.
type RunResult struct {
	Config Config

	// App-level (Figures 7 and 9).
	Metrics  app.Metrics
	Delivery float64 // R_deliv
	AvgDelay float64 // seconds

	// Per-node ratios averaged over non-leaf nodes (Figures 8, 10, 11).
	AvgDropRatio     float64
	AvgRetxRatio     float64
	AvgOverheadRatio float64
	NonLeafCount     int

	// RMAC-only distributions (Figures 12 and 13). Raw samples are kept
	// so sweeps can pool across seeds.
	MRTSLens    *stats.Sample // bytes, every MRTS sent by any node
	AbortRatios *stats.Sample // per non-leaf-node R_abort

	// Tree shape at the end of the run (§4.1.1 context).
	Tree topo.TreeStats

	// Simulator instrumentation.
	Events uint64
	// TimerStats is the engine's per-horizon timer census when
	// Config.TimerStats is set (nil otherwise).
	TimerStats *sim.TimerStats
	// Trace holds the PHY event timeline when Config.TraceCap > 0.
	Trace *trace.Trace

	// Fault carries the impairment layer's counters; Crashes is the
	// medium's count of applied radio crashes.
	Fault   fault.Stats
	Crashes uint64

	// Deadlocks lists nodes the liveness audit flagged at quiesce: stuck
	// in a non-idle protocol state with nothing armed to advance them.
	Deadlocks []Deadlock

	// Violations holds the protocol-invariant auditor's findings when
	// Config.Audit is set (capped with context; ViolationCount is the
	// uncapped total). A conforming protocol stack reports zero.
	Violations     []audit.Violation
	ViolationCount uint64

	// Totals carries the raw, non-derived counters of the run — summed
	// MAC statistics, channel-level medium counters, frame-pool traffic,
	// kernel arena occupancy and per-class audit violations — the numbers
	// the telemetry layer exports (see metrics.go and DESIGN.md §13).
	Totals RunTotals

	// Shards holds per-shard scheduler observability for sharded runs
	// (Config.Shards > 1; nil otherwise). Node/event/window/message
	// counts are deterministic for a fixed (Seed, Shards); the stall
	// wall-clock measurements are not. None of it enters Fingerprint.
	Shards []ShardRunStats

	// Aborted is set when the engine watchdog stopped the run before its
	// horizon; the metrics above then cover only the simulated prefix.
	Aborted     bool
	AbortReason string

	// Failed is set when the run could not produce metrics at all: the
	// configuration was invalid or the simulation panicked. FailReason
	// explains why; Stack holds the panicking goroutine's stack.
	Failed     bool
	FailReason string
	Stack      string
}

// Deadlock identifies one node flagged by the MAC liveness audit.
type Deadlock struct {
	Node  int
	State string
}

// RunTotals aggregates a run's raw counters across all nodes. Unlike the
// averaged per-node ratios above, these are plain monotone sums, so the
// sweep service can fold them into its counter families point by point
// and a Prometheus scrape sees one consistent vocabulary whether the
// source is a batch run (rmacsim -metrics) or a served sweep.
type RunTotals struct {
	// Per-protocol MAC counters summed over all nodes (mac.Stats).
	Enqueued           uint64 `json:"enqueued"`
	QueueDrops         uint64 `json:"queue_drops"`
	ReliableToTransmit uint64 `json:"reliable_to_transmit"`
	ReliableDelivered  uint64 `json:"reliable_delivered"`
	Retransmissions    uint64 `json:"retransmissions"`
	Drops              uint64 `json:"drops"`
	UnreliableSent     uint64 `json:"unreliable_sent"`
	MRTSSent           uint64 `json:"mrts_sent"`
	MRTSAborted        uint64 `json:"mrts_aborted"`
	ABTSent            uint64 `json:"abt_sent"`

	// Channel-level medium counters (phy.MediumStats).
	Medium phy.MediumStats `json:"medium"`

	// Frame-pool traffic (frame.PoolStats).
	FramePool frame.PoolStats `json:"frame_pool"`

	// Kernel event-arena occupancy at collection time: total slots grown
	// and slots still queued.
	ArenaCap  int `json:"arena_cap"`
	ArenaLive int `json:"arena_live"`

	// ViolationsByClass partitions the auditor's Count by invariant
	// class, indexed by audit.Class.
	ViolationsByClass [audit.NumClasses]uint64 `json:"violations_by_class"`

	// Application-level delivery counters (app.Metrics scalars), repeated
	// here so the totals are a self-contained telemetry payload.
	Generated  uint64 `json:"generated"`
	Receptions uint64 `json:"receptions"`
	Duplicates uint64 `json:"duplicates"`
}

// addMAC folds one node's MAC counters into the totals (the MRTS length
// samples stay in RunResult.MRTSLens; totals are scalars only).
func (t *RunTotals) addMAC(s *mac.Stats) {
	t.Enqueued += s.Enqueued
	t.QueueDrops += s.QueueDrops
	t.ReliableToTransmit += s.ReliableToTransmit
	t.ReliableDelivered += s.ReliableDelivered
	t.Retransmissions += s.Retransmissions
	t.Drops += s.Drops
	t.UnreliableSent += s.UnreliableSent
	t.MRTSSent += s.MRTSSent
	t.MRTSAborted += s.MRTSAborted
	t.ABTSent += s.ABTSent
}

// auditLiveness applies the deadlock predicate to every MAC: non-idle
// with nothing pending means the node can never advance again.
func auditLiveness(macs []mac.MAC) []Deadlock {
	var out []Deadlock
	for i, m := range macs {
		lr, ok := m.(mac.LivenessReporter)
		if !ok {
			continue
		}
		if l := lr.Liveness(); !l.Idle && !l.Pending {
			out = append(out, Deadlock{Node: i, State: l.State})
		}
	}
	return out
}

// stack is one engine's share of a run: the engine with its medium,
// fault injector and auditor, and the per-node layers (mobility, MAC,
// BLESS routing, multicast app) of the nodes it hosts. A one-engine run
// is one stack over every node; a sharded run is one stack per strip.
type stack struct {
	eng      *sim.Engine
	medium   *phy.Medium
	ids      []int // global node ids, ascending; parallel to macs/routers
	macs     []mac.MAC
	routers  []*routing.Protocol
	metrics  app.Metrics
	injector *fault.Injector
	aud      *audit.Auditor
	tstats   *sim.TimerStats
}

// makePlacement runs cfg's placement generator. Deterministic in
// (Config, Seed): the one-engine and the sharded run call it with the same
// derived RNG, so a run's topology is independent of Shards.
func makePlacement(cfg Config) topo.Placement {
	rng := rand.New(rand.NewSource(cfg.Seed ^ PlacementSeedMix))
	switch cfg.Topo {
	case TopoUniform:
		return topo.RandomPlacement(cfg.Nodes, cfg.Field, rng)
	case TopoPoisson:
		return topo.PoissonDiscPlacement(cfg.Nodes, cfg.Field, cfg.NodeSpacing, rng)
	case TopoMetro:
		return topo.MetroPlacement(cfg.Nodes, cfg.metroDistricts(), cfg.Field, cfg.metroGap(), rng)
	default:
		p, _ := topo.ConnectedRandomPlacement(cfg.Nodes, cfg.Field, cfg.Phy.CommRange, rng, 500)
		return p
	}
}

// waypoint is node i's random-waypoint trajectory from start: a pure
// function of (Seed, i), so it is the same whatever engine hosts the node
// and equals the sharded run's shadow replica.
func waypoint(cfg Config, start geom.Point, i int) *mobility.RandomWaypoint {
	rng := rand.New(rand.NewSource(cfg.Seed*1_000_003 + int64(i)))
	return mobility.NewRandomWaypoint(cfg.Field, 0, cfg.Scenario.MaxSpeed(), cfg.Scenario.Pause(), start, rng)
}

// build assembles the one-engine run of cfg, which must already be
// validated: one stack over every node.
func build(cfg Config) *stack {
	ids := make([]int, cfg.Nodes)
	for i := range ids {
		ids[i] = i
	}
	return buildStack(cfg, makePlacement(cfg), sim.NewEngine(cfg.Seed), ids)
}

// buildStack wires the nodes ids (ascending) of placement onto eng: a
// medium, then per node mobility, MAC, routing, app and auditor hooks,
// with each source started right after its node, and finally the fault
// injector over the finished medium.
func buildStack(cfg Config, placement topo.Placement, eng *sim.Engine, ids []int) *stack {
	medium := phy.NewMedium(eng, cfg.Phy)
	st := &stack{eng: eng, medium: medium, ids: ids, metrics: app.Metrics{Nodes: cfg.Nodes},
		macs: make([]mac.MAC, 0, len(ids)), routers: make([]*routing.Protocol, 0, len(ids))}
	if cfg.TraceCap > 0 {
		medium.Tracer = trace.New(cfg.TraceCap)
	}
	if cfg.TimerStats {
		st.tstats = eng.EnableTimerStats()
	}
	if cfg.Audit {
		// The airtime bound sizes the legal RBT hold window: the largest
		// data frame a run can carry is a forwarded source packet (beacons
		// are far smaller), with a little slack for header variations.
		st.aud = audit.New(eng, medium, audit.Config{
			MaxFrameAirtime: cfg.Phy.TxDuration(frame.RMACDataOverhead + cfg.PacketSize + 64),
		})
	}
	roots := cfg.sourceNodes() // ascending
	for _, i := range ids {
		var mob mobility.Model = mobility.Stationary{P: placement.Points[i]}
		if cfg.Scenario != Stationary {
			mob = waypoint(cfg, placement.Points[i], i)
		}
		m := protocolTable[cfg.Protocol].newMAC(medium.AddRadio(i, mob), eng, &cfg)
		_, isRoot := slices.BinarySearch(roots, i)
		rt := routing.New(eng, m, i, isRoot, cfg.Routing)
		a := app.NewNode(eng, m, rt, i, &st.metrics)
		rt.Start()
		if st.aud != nil {
			st.aud.RegisterMAC(i, m)
			if s, ok := m.(interface{ SetAuditor(*audit.Auditor) }); ok {
				s.SetAuditor(st.aud)
			}
			// app.NewNode installed itself as the MAC's upper layer;
			// interpose the at-most-once delivery check in front of it.
			m.SetUpper(st.aud.WrapUpper(i, a))
		}
		st.macs = append(st.macs, m)
		st.routers = append(st.routers, rt)
		if isRoot {
			app.NewSource(a, cfg.Rate, cfg.Packets, cfg.PacketSize).Start(cfg.Warmup)
		}
	}
	// The impairment layer attaches after every radio exists (its GE
	// chains are built per registered radio). A zero cfg.Fault leaves the
	// medium untouched.
	st.injector = fault.New(eng, medium, cfg.Fault)
	return st
}

// testHookPreRun, when non-nil, runs inside Run's panic isolation just
// before the simulation is built. Tests use it to inject a panic for a
// chosen configuration and assert the sweep survives.
var testHookPreRun func(Config)

// Run executes one simulation and reduces its measurements. It never
// panics: an invalid configuration or a panicking protocol stack yields a
// RunResult with Failed set (and the captured stack), so one poisoned
// seed cannot take down a whole sweep.
func Run(cfg Config) RunResult { return RunCtx(context.Background(), cfg) }

// RunCtx is Run with cooperative cancellation: once ctx is done the
// engine aborts at its next periodic check and the result carries the
// metrics of the simulated prefix with Aborted set — exactly like a
// watchdog trip. A run whose context is never canceled is bit-identical
// to Run with the same Config, so callers (signal-wired CLIs, the sweep
// service's per-job deadlines) pay nothing for the hook.
func RunCtx(ctx context.Context, cfg Config) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{
				Config:     cfg,
				Failed:     true,
				FailReason: fmt.Sprintf("panic: %v", r),
				Stack:      string(debug.Stack()),
			}
		}
	}()
	if err := cfg.Validate(); err != nil {
		return RunResult{Config: cfg, Failed: true, FailReason: err.Error()}
	}
	if testHookPreRun != nil {
		testHookPreRun(cfg)
	}
	if cfg.Shards > 1 {
		return runSharded(ctx, cfg)
	}
	st := build(cfg)
	if cfg.MaxEvents > 0 || cfg.MaxWall > 0 {
		st.eng.SetWatchdog(cfg.MaxEvents, cfg.MaxWall)
	}
	st.eng.SetContext(ctx)
	st.eng.Run(cfg.Horizon())
	return reduce(cfg, []*stack{st})
}

// reduce merges the stacks of a finished run into one RunResult. It runs
// the liveness and invariant audits once, after the last window (an
// engine quiesces at the end of every sharded frontier window, where they
// would report false mid-run findings), and walks nodes in global id
// order, so pooled samples come out ordered alike whatever the sharding.
func reduce(cfg Config, stacks []*stack) RunResult {
	res := RunResult{
		Config:      cfg,
		Metrics:     app.Metrics{Nodes: cfg.Nodes},
		MRTSLens:    &stats.Sample{},
		AbortRatios: &stats.Sample{},
		// TraceCap is one-engine only (Validate), so stack 0 holds the trace.
		Trace: stacks[0].medium.Tracer,
	}
	macs := make([]mac.MAC, cfg.Nodes)
	parent := make([]int, cfg.Nodes)
	for s, st := range stacks {
		for k, id := range st.ids {
			macs[id] = st.macs[k]
			parent[id] = st.routers[k].Parent()
		}
		if reason, aborted := st.eng.Aborted(); aborted && !res.Aborted {
			res.Aborted, res.AbortReason = true, reason
			if len(stacks) > 1 {
				res.AbortReason = fmt.Sprintf("shard %d: %s", s, reason)
			}
		}
		st.aud.Quiesce()
		res.Violations = append(res.Violations, st.aud.Violations()...)
		if st.aud != nil {
			res.ViolationCount += st.aud.Count
			for c, v := range st.aud.ByClass {
				res.Totals.ViolationsByClass[c] += v
			}
		}
		if st.tstats != nil {
			if res.TimerStats == nil {
				res.TimerStats = &sim.TimerStats{}
			}
			res.TimerStats.Add(st.tstats)
		}
		res.Events += st.eng.Processed
		res.Metrics.Add(st.metrics)
		res.Fault.Add(st.injector.Stats)
		res.Totals.Medium.Add(st.medium.Stats)
		res.Totals.FramePool.Add(st.medium.Frames().Stats())
		res.Totals.ArenaCap += st.eng.ArenaCap()
		res.Totals.ArenaLive += st.eng.PoolInUse()
	}
	res.Deadlocks = auditLiveness(macs)
	res.Crashes = res.Totals.Medium.Crashes
	res.Delivery = res.Metrics.DeliveryRatio()
	res.AvgDelay = res.Metrics.AvgDelay()
	res.Totals.Generated = res.Metrics.Generated
	res.Totals.Receptions = res.Metrics.Receptions
	res.Totals.Duplicates = res.Metrics.Duplicates
	var drop, retx, ovh stats.Sample
	for _, m := range macs {
		s := m.Stats()
		res.Totals.addMAC(s)
		if !s.NonLeaf() {
			continue
		}
		res.NonLeafCount++
		drop.Add(totalDropRatio(s))
		retx.Add(s.RetxRatio())
		// §4.3.2's R_txoh is control time over data time; a forwarder that
		// never got to transmit data (crashed early, or all its packets
		// died in contention) has no defined ratio — its hardwired zero
		// would bias the average down, so it is excluded.
		if s.DataTxTime > 0 {
			ovh.Add(s.OverheadRatio())
		}
		res.AbortRatios.Add(s.AbortRatio())
		for _, l := range s.MRTSLens {
			res.MRTSLens.Add(float64(l))
		}
	}
	res.AvgDropRatio = drop.Mean()
	res.AvgRetxRatio = retx.Mean()
	res.AvgOverheadRatio = ovh.Mean()
	res.Tree = topo.AnalyzeTree(parent, 0)
	return res
}

// totalDropRatio is the paper's R_drop: packets dropped by a node over
// packets to be transmitted by it. Queue-overflow rejections count as
// drops alongside retry-limit drops.
func totalDropRatio(s *mac.Stats) float64 {
	den := float64(s.ReliableToTransmit + s.QueueDrops)
	return stats.Ratio(float64(s.Drops+s.QueueDrops), den)
}
