package experiment

import (
	"context"
	"fmt"
	"math/bits"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"rmac/internal/geom"
	"rmac/internal/mobility"
	"rmac/internal/phy"
	"rmac/internal/sim"
	"rmac/internal/topo"
)

// Sharded conservative parallel runs (Config.Shards > 1). The field is cut
// into vertical strips by population quantile (snapped to the widest
// nearby X-gap), each strip gets a complete private stack — engine,
// medium, MACs, routing, apps, fault injector, auditor — on its own
// goroutine, and the strips synchronize through the frontier protocol of
// sim.ShardSync with the cross-shard conduit of phy.ConnectShards carrying
// border traffic. See DESIGN.md §14 for the protocol, its liveness
// argument, and the determinism contract.
//
// Mobile scenarios run the same protocol under *mobility epochs* (DESIGN.md
// §15): the horizon is divided into fixed-length epochs, per-node
// displacement within one epoch is bounded by MaxSpeed·epoch, and at every
// epoch boundary all shards park at a barrier while a rollover leader
// (shard 0) recomputes the lookahead matrix and border-band membership from
// the boundary positions. The leader reads positions from its own shadow
// replicas of every node's waypoint model — trajectories are pure functions
// of (Seed, node id), so no cross-goroutine state is touched.

// ShardSeedMix decorrelates per-shard engine RNG streams from each other
// and from the unsharded stream while keeping them functions of
// (Config.Seed, shard). The 64-bit golden-ratio constant, reinterpreted
// as a signed word.
const ShardSeedMix = int64(-7046029254386353131) // 0x9E3779B97F4A7C15

func shardSeed(seed int64, shard int) int64 {
	return seed ^ int64(shard+1)*ShardSeedMix
}

// ShardRunStats is one shard's scheduler observability. Nodes, Events,
// Windows and the conduit message counts are deterministic for a fixed
// (Seed, Shards); Stalls/StallWall/StallHist are wall-clock measurements.
// None of it enters RunResult.Fingerprint.
type ShardRunStats struct {
	Shard   int
	Nodes   int
	Events  uint64
	Windows uint64 // Run windows executed
	MsgsOut uint64 // cross-shard messages published
	MsgsIn  uint64 // cross-shard messages drained
	// Mobility epoch counters (zero when stationary): boundary rollovers
	// this shard synchronized on, and ghost record firings it received.
	// All three are deterministic for a fixed (Seed, Shards).
	Epochs    uint64
	GhostAdds uint64
	GhostDels uint64
	Stalls    uint64 // frontier waits
	// StallWall is total wall time spent waiting on foreign frontiers;
	// StallHist buckets individual waits by power-of-two nanoseconds
	// (bucket i counts waits in [2^(i-1), 2^i)).
	StallWall time.Duration
	StallHist [40]uint64
}

// shardedRun is the coordinator state of one sharded simulation.
type shardedRun struct {
	cfg    Config
	stacks []*stack // one per strip, indexed by shard
	shards []ShardRunStats
	net    *phy.ShardNet
	sync   *sim.ShardSync

	// Mobility epoch state. shadow/posB are leader-owned: only shard 0
	// touches them, inside the boundary barrier. gen is the epoch
	// generation — the leader's release-increment after Rebuild is what
	// publishes the new tables to the followers spinning on it.
	mobile   bool
	epoch    sim.Time
	envelope float64
	shadow   []*mobility.RandomWaypoint
	posB     []geom.Point
	gen      atomic.Uint64

	stop   atomic.Bool
	cancel context.CancelFunc
	wg     sync.WaitGroup

	mu        sync.Mutex
	panicked  bool
	panicMsg  string
	panicDump string
}

// buildSharded assembles one stack per strip and the cross-shard fabric.
func buildSharded(cfg Config) *shardedRun {
	placement := makePlacement(cfg)
	part := topo.PartitionStrips(placement, cfg.Shards)
	sr := &shardedRun{cfg: cfg, shards: make([]ShardRunStats, cfg.Shards)}
	mediums := make([]*phy.Medium, cfg.Shards)
	for s := range mediums {
		st := buildStack(cfg, placement, sim.NewEngine(shardSeed(cfg.Seed, s)), part.Nodes[s])
		sr.shards[s].Shard, sr.shards[s].Nodes = s, len(st.ids)
		mediums[s] = st.medium
		sr.stacks = append(sr.stacks, st)
	}
	if cfg.Scenario == Stationary {
		sr.net = phy.ConnectShards(mediums, placement.Points, part.Shard, cfg.Horizon())
	} else {
		sr.mobile = true
		sr.epoch = cfg.shardEpoch()
		sr.envelope = 2 * cfg.Scenario.MaxSpeed() * sr.epoch.Seconds()
		if w := part.MinStripWidth(cfg.Field.W); sr.envelope >= w {
			// Sound but hopeless: border bands spanning whole strips pin
			// every pairwise lookahead near the 1 ns floor. Validate already
			// rejects this against the mean strip width; this guard catches
			// placements whose population-quantile cuts came out narrower.
			panic(fmt.Sprintf("experiment: mobility envelope %.1fm exceeds the narrowest %.1fm strip; shorten ShardEpoch or use fewer shards", sr.envelope, w))
		}
		sr.shadow = make([]*mobility.RandomWaypoint, cfg.Nodes)
		sr.posB = make([]geom.Point, cfg.Nodes)
		for i := range sr.shadow {
			sr.shadow[i] = waypoint(cfg, placement.Points[i], i)
		}
		sr.net = phy.ConnectShardsMobile(mediums, placement.Points, part.Shard, cfg.Horizon(), sr.envelope)
	}
	sr.sync = sim.NewShardSync(sr.net.Direct())
	return sr
}

// rebuildEpoch recomputes the cross-shard fabric for the epoch starting at
// boundary B. Leader-only, inside the barrier: every shard has published a
// frontier ≥ B and is parked draining, so the fabric is quiescent.
func (sr *shardedRun) rebuildEpoch(B sim.Time) {
	for i, mdl := range sr.shadow {
		sr.posB[i] = mdl.PositionAt(B)
	}
	sr.net.Rebuild(sr.posB, B, 0)
	sr.sync.SetLookahead(sr.net.Direct())
}

// fail records a shard goroutine's panic (first one wins).
func (sr *shardedRun) fail(r any, stack []byte) {
	sr.mu.Lock()
	if !sr.panicked {
		sr.panicked = true
		sr.panicMsg = fmt.Sprintf("panic: %v", r)
		sr.panicDump = string(stack)
	}
	sr.mu.Unlock()
}

// publish refreshes shard j's frontier: the earliest future influence it
// can still exert. That is the smaller of its next local event and the
// send time of its earliest outbound message nobody has drained yet. The
// second term is what makes relays safe: until a receiver drains a
// message, the sender's frontier keeps covering that message's send time,
// so third shards bounding the receiver's relay through the path closure
// (foreign frontier + pathLa) never under-estimate it. Once the receiver
// drains, its own next-lower-bound covers the scheduled delivery and the
// cap releases.
func (sr *shardedRun) publish(j int, eng *sim.Engine) {
	lb := eng.NextLowerBound()
	if c := sr.net.OutCap(j); c < lb {
		lb = c
	}
	sr.sync.Publish(j, lb)
}

// runShard is one shard's frontier loop. The window order is load-bearing:
// the safe target is read BEFORE draining — any cross message with an
// event inside [0, target) was published before the frontier snapshots
// the target was computed from, so it is already visible to that drain
// (ring writes happen-before the frontier store that made the target) —
// and the frontier is re-published only after draining, so everything the
// drain scheduled is reflected in the next-lower-bound it advertises.
func (sr *shardedRun) runShard(j int, endTime sim.Time) {
	eng, ss := sr.stacks[j].eng, &sr.shards[j]
	defer func() {
		if r := recover(); r != nil {
			sr.fail(r, debug.Stack())
			sr.stop.Store(true)
			sr.cancel()
			sr.net.Stop()
		}
		// Terminal frontier: a shard at MaxTime constrains nobody.
		sr.sync.Publish(j, sim.MaxTime)
		sr.wg.Done()
	}()
	done := sim.Time(-1) // end of the last executed window
	// Mobility epochs: B is the next epoch boundary — a hard cap on every
	// window, because the current lookahead tables are only valid for
	// events strictly before it. gen is the epoch generation this shard has
	// observed. Stationary runs never roll over (B = MaxTime) and take the
	// exact pre-epoch path.
	B := sim.MaxTime
	if sr.mobile {
		B = sr.epoch
	}
	var gen uint64
	for !sr.stop.Load() {
		target := sr.sync.Target(j)
		sr.net.Drain(j)
		sr.publish(j, eng)
		bound := target
		if bound > B {
			bound = B
		}
		if bound > endTime {
			// No foreign influence can arrive on or before the horizon
			// anymore: an undrained message would cap its sender's frontier
			// at the send time, pulling our target back under the horizon,
			// and future sends land above their sender's frontier plus
			// lookahead — above target — where the sender-side filter drops
			// them. This is the final window. (Mobile: requires B > endTime
			// too, so the final window never outruns the epoch tables.)
			if endTime > done {
				eng.Run(endTime)
				ss.Windows++
			}
			sr.checkAborted(eng)
			return
		}
		if target > B {
			// Epoch rollover. target > B proves every event strictly before
			// B safe under the *current* tables: finish the epoch's window,
			// then synchronize. The barrier condition is MinFrontier ≥ B —
			// every shard has executed all pre-boundary events and every
			// conduit ring is empty (an undrained message's send time t0 < B
			// would cap its sender's frontier below B; and any message a
			// parked shard drains after the leader's frontier snapshot was
			// provably sent at t0 ≥ B, because its sender's frontier had
			// already been observed at or past B). Everyone keeps draining
			// and re-publishing while parked, so outbound caps release and
			// the leader's ghost records always find ring space.
			if B-1 > done {
				eng.Run(B - 1)
				done = B - 1
				ss.Windows++
				sr.checkAborted(eng)
				if sr.stop.Load() {
					return
				}
			}
			sr.publish(j, eng)
			ss.Epochs++
			if j == 0 {
				for !sr.stop.Load() && sr.sync.MinFrontier() < B {
					sr.net.Drain(j)
					sr.publish(j, eng)
					runtime.Gosched()
				}
				if sr.stop.Load() {
					return
				}
				sr.rebuildEpoch(B)
				sr.gen.Add(1) // release-publishes the new tables
			} else {
				for !sr.stop.Load() && sr.gen.Load() == gen {
					sr.net.Drain(j)
					sr.publish(j, eng)
					runtime.Gosched()
				}
				if sr.stop.Load() {
					return
				}
			}
			gen++
			B += sr.epoch
			continue
		}
		limit := bound - 1 // events at exactly `target` are not yet safe
		if limit > done {
			eng.Run(limit)
			done = limit
			ss.Windows++
			sr.checkAborted(eng)
			continue
		}
		// Cannot advance: wait for a foreign frontier to move. Keep
		// draining while waiting — inbound messages never change our
		// target, but consuming them unblocks producers and releases
		// their frontier caps — and keep re-publishing as drains and
		// consumed outbound slots raise our own frontier.
		ss.Stalls++
		begin := time.Now()
		for spins := 0; !sr.stop.Load(); spins++ {
			if sr.sync.Target(j) > target {
				break
			}
			sr.net.Drain(j)
			sr.publish(j, eng)
			if spins < 256 {
				runtime.Gosched()
			} else {
				d := time.Duration(spins)
				if d > 100 {
					d = 100
				}
				time.Sleep(d * time.Microsecond)
			}
		}
		wait := time.Since(begin)
		ss.StallWall += wait
		if b := bits.Len64(uint64(wait.Nanoseconds())); b < len(ss.StallHist) {
			ss.StallHist[b]++
		} else {
			ss.StallHist[len(ss.StallHist)-1]++
		}
	}
}

// checkAborted propagates a shard-local engine abort (watchdog budget or
// context cancellation — each shard polls the run context itself, every
// 1024 events) to every other shard.
func (sr *shardedRun) checkAborted(eng *sim.Engine) {
	if _, aborted := eng.Aborted(); aborted {
		sr.stop.Store(true)
		sr.cancel()
		sr.net.Stop()
	}
}

// runSharded executes cfg on the sharded engine. Config must be valid and
// cfg.Shards > 1.
func runSharded(ctx context.Context, cfg Config) (res RunResult) {
	defer func() {
		if r := recover(); r != nil {
			res = RunResult{Config: cfg, Failed: true,
				FailReason: fmt.Sprintf("panic: %v", r), Stack: string(debug.Stack())}
		}
	}()
	return buildSharded(cfg).run(ctx)
}

// run drives every shard's frontier loop to the horizon and reduces the
// stacks.
func (sr *shardedRun) run(ctx context.Context) RunResult {
	cfg := sr.cfg
	ctx, sr.cancel = context.WithCancel(ctx)
	defer sr.cancel()
	endTime := cfg.Horizon()
	for _, st := range sr.stacks {
		if cfg.MaxEvents > 0 || cfg.MaxWall > 0 {
			// Each shard gets the full budget: MaxEvents bounds any single
			// engine, so a sharded run may process up to Shards× more
			// events before tripping — budgets bound runaway shards, not
			// aggregate work.
			st.eng.SetWatchdog(cfg.MaxEvents, cfg.MaxWall)
		}
		st.eng.SetContext(ctx)
	}
	sr.wg.Add(len(sr.stacks))
	for j := range sr.stacks {
		go sr.runShard(j, endTime)
	}
	sr.wg.Wait()
	if sr.panicked {
		return RunResult{Config: cfg, Failed: true, FailReason: sr.panicMsg, Stack: sr.panicDump}
	}
	for j, st := range sr.stacks {
		ss := &sr.shards[j]
		ss.Events = st.eng.Processed
		cs := sr.net.Stats(j)
		ss.MsgsOut, ss.MsgsIn = cs.MsgsOut, cs.MsgsIn
		ss.GhostAdds, ss.GhostDels = cs.GhostAdds, cs.GhostDels
	}
	res := reduce(cfg, sr.stacks)
	res.Shards = sr.shards
	return res
}
