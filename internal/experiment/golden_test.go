package experiment

import (
	"fmt"

	"rmac/internal/fault"
	"rmac/internal/geom"
	"testing"
)

// goldenConfig is a reduced-scale but fully representative RMAC run: a
// multi-hop tree with real contention, enough packets for retransmissions
// and aborts to occur. Small enough to run in well under a second.
func goldenConfig() Config {
	cfg := DefaultConfig()
	cfg.Protocol = RMAC
	cfg.Scenario = Stationary
	cfg.Nodes = 30
	cfg.Field = geom.Rect{W: 320, H: 200}
	cfg.Packets = 200
	cfg.Rate = 40
	cfg.Seed = 12345
	return cfg
}

// goldenGridConfig is the same run at a network size past the spatial-grid
// threshold (96 radios), so the grid fan-out path is pinned too.
func goldenGridConfig() Config {
	cfg := goldenConfig()
	cfg.Nodes = 120
	cfg.Field = geom.Rect{W: 500, H: 400}
	cfg.Packets = 60
	return cfg
}

// goldenFaultConfig is the golden run with the impairment layer switched
// on — Gilbert–Elliott bursts erasing 20% of the timeline and nodes that
// are up 90% of the time — pinning the fault layer's RNG consumption and
// crash scheduling alongside the protocol behaviour they provoke.
func goldenFaultConfig() Config {
	cfg := goldenConfig()
	cfg.Fault = fault.Config{Burst: fault.BurstAt(0.2), Churn: fault.ChurnAt(0.9)}
	return cfg
}

// goldenShardConfig is a multi-source run of the compact two-strip shard
// network on the given placement and mobility scenario. Its rows pin the
// sharded stack's whole fingerprint across code changes (the sharded
// determinism tests only compare reruns of the same code), and the
// Shards=0 row pins the one-engine stack on the same two-district
// placement.
func goldenShardConfig(shards int, topo TopoKind, sc Scenario) Config {
	cfg := shardConfig(shards)
	cfg.Topo = topo
	cfg.Districts = 2
	cfg.Sources = 2
	cfg.Scenario = sc
	return cfg
}

// goldenFPString extends goldenString with the full result fingerprint.
func goldenFPString(r RunResult) string {
	return fmt.Sprintf("%s fp=%s", goldenString(r), r.Fingerprint())
}

// goldenFaultString extends goldenString with the impairment counters.
func goldenFaultString(r RunResult) string {
	return fmt.Sprintf("%s bursterr=%d badentries=%d crashes=%d recoveries=%d deadlocks=%d",
		goldenString(r), r.Fault.BurstErrors, r.Fault.BadEntries, r.Crashes,
		r.Fault.Recoveries, len(r.Deadlocks))
}

// goldenString reduces a RunResult to the fields every figure is computed
// from, formatted with full float precision so any drift is visible.
func goldenString(r RunResult) string {
	return fmt.Sprintf(
		"events=%d gen=%d rx=%d dup=%d deliv=%.17g delay=%.17g drop=%.17g retx=%.17g ovh=%.17g nonleaf=%d mrts_n=%d abort_n=%d reach=%d",
		r.Events, r.Metrics.Generated, r.Metrics.Receptions, r.Metrics.Duplicates,
		r.Delivery, r.AvgDelay, r.AvgDropRatio, r.AvgRetxRatio, r.AvgOverheadRatio,
		r.NonLeafCount, r.MRTSLens.N(), r.AbortRatios.N(), r.Tree.Reachable)
}

// Golden values produced by the pre-pooling seed kernel (container/heap
// engine, per-event allocations). The pooled kernel must reproduce them
// bit-identically: pooling recycles memory but must not change the event
// schedule, the (time, seq) execution order, or the RNG consumption.
//
// To refresh after an intentional behaviour change, run
//
//	go test ./internal/experiment -run TestGoldenDeterminism -v
//
// and copy the "got:" lines printed on mismatch.
const (
	goldenStationary = "events=348700 gen=200 rx=5783 dup=0 deliv=0.99706896551724133 delay=0.010149750000000001 drop=0 retx=0.12833333333333333 ovh=0.1991675194619906 nonleaf=12 mrts_n=2708 abort_n=12 reach=30"
	goldenGrid       = "events=719946 gen=60 rx=6959 dup=0 deliv=0.97464985994397757 delay=0.139179626 drop=0.0016878531073446328 retx=0.36548022598870056 ovh=0.22847831986517395 nonleaf=40 mrts_n=3208 abort_n=40 reach=120"
	// goldenFault pins the impairment layer: same run as goldenStationary
	// but with bursty loss and churn enabled, so any drift in the GE chain
	// advancement, churn scheduling, or crash semantics shows up here.
	goldenFault = "events=1011170 gen=200 rx=4771 dup=0 deliv=0.82258620689655171 delay=0.734644046 drop=0.10764765045303065 retx=1.7330833580432325 ovh=0.21918798901650646 nonleaf=11 mrts_n=5236 abort_n=11 reach=30 bursterr=4848 badentries=14914 crashes=279 recoveries=274 deadlocks=0"
	// The two-district rows pin the sharded and one-engine stacks on
	// multi-source runs; each carries the full fingerprint
	// (goldenFPString).
	goldenMetro2    = "events=86381 gen=60 rx=1140 dup=0 deliv=0.48717948717948717 delay=0.0056451499999999998 drop=0 retx=0.20370370370370369 ovh=0.28052503052503047 nonleaf=9 mrts_n=325 abort_n=9 reach=20 fp=1dd772b1598594ea337f5e6640f9d623d2103be5ca1cafefe707042716b0502c"
	goldenUniform2  = "events=92906 gen=60 rx=1140 dup=0 deliv=0.48717948717948717 delay=0.013345493 drop=0 retx=0.28333333333333338 ovh=0.18781262401897858 nonleaf=12 mrts_n=462 abort_n=12 reach=38 fp=f6b0681268bad99514e56eeef856fb7c49513ef4aa460c99a34b0b1b0a345977"
	goldenMetroMob2 = "events=149120 gen=60 rx=1110 dup=0 deliv=0.47435897435897434 delay=0.0056151209999999998 drop=0.10000000000000001 retx=0.80666666666666664 ovh=0.36651518073225059 nonleaf=10 mrts_n=512 abort_n=10 reach=20 fp=0290932b4e88bb1768bc7e92380269ceaa7fb7d288aadc365de33c726b50152d"
	goldenMetroOne  = "events=87788 gen=60 rx=1140 dup=0 deliv=0.48717948717948717 delay=0.0061778459999999999 drop=0 retx=0.17000000000000001 ovh=0.24628999930886725 nonleaf=10 mrts_n=351 abort_n=10 reach=20 fp=05767a7ec67731316cb34e070e18cb7f72aa73e408979a1e0d8440a48bf00cf1"
)

// TestGoldenDeterminism pins the fixed-seed RunResult of a full RMAC run
// against values recorded from the seed (pre-pooling) kernel, proving the
// pooled event kernel and pooled PHY fan-out are behaviour-preserving.
func TestGoldenDeterminism(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"stationary-30", goldenConfig(), goldenStationary},
		{"grid-120", goldenGridConfig(), goldenGrid},
		{"fault-30", goldenFaultConfig(), goldenFault},
		{"metro-shards2", goldenShardConfig(2, TopoMetro, Stationary), goldenMetro2},
		{"uniform-shards2", goldenShardConfig(2, TopoUniform, Stationary), goldenUniform2},
		{"metro-speed1-shards2", goldenShardConfig(2, TopoMetro, Speed1), goldenMetroMob2},
		{"metro-shards0", goldenShardConfig(0, TopoMetro, Stationary), goldenMetroOne},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := Run(tc.cfg)
			got := goldenString(r)
			switch {
			case tc.cfg.Fault.Enabled():
				got = goldenFaultString(r)
			case tc.cfg.Sources > 1:
				got = goldenFPString(r)
			}
			if got != tc.want {
				t.Errorf("fixed-seed run drifted from seed kernel\n got: %s\nwant: %s", got, tc.want)
			}
		})
	}
}

// TestSeedDeterminismRegression verifies that two runs with identical
// configuration produce identical results — including under mobility,
// where the random-waypoint streams and the lazy spatial grid interact
// with event ordering.
func TestSeedDeterminismRegression(t *testing.T) {
	for _, sc := range []Scenario{Stationary, Speed1} {
		sc := sc
		t.Run(sc.String(), func(t *testing.T) {
			cfg := goldenConfig()
			cfg.Scenario = sc
			cfg.Packets = 80
			a := goldenString(Run(cfg))
			b := goldenString(Run(cfg))
			if a != b {
				t.Errorf("identical-seed runs diverged\nfirst:  %s\nsecond: %s", a, b)
			}
		})
	}
}
