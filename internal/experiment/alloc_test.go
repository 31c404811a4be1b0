package experiment

import (
	"runtime"
	"testing"

	"rmac/internal/geom"
	"rmac/internal/sim"
)

// TestSteadyStateAllocs is the allocation regression gate for the pooled
// frame lifecycle (DESIGN.md §9): once a network is warmed up — pools
// populated, topology converged, queues in steady state — driving the
// simulation forward must allocate (almost) nothing per event. The
// tolerated residue covers genuinely unbounded bookkeeping: the app and
// audit per-source sequence bitsets and the MRTS length sample all grow
// with unique packets, amortizing to well under one allocation per
// hundred events. A regression that re-introduces per-frame or per-timer garbage
// shows up here as allocs/event jumping by an order of magnitude.
func TestSteadyStateAllocs(t *testing.T) {
	protos := []Protocol{RMAC, BMMM, BMW, LBP, MX, DOT11}
	for _, p := range protos {
		p := p
		t.Run(p.String(), func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Protocol = p
			cfg.Nodes = 25
			cfg.Field = geom.Rect{W: 300, H: 200}
			cfg.Rate = 40
			cfg.Packets = 1 << 20 // keep the source busy past the window
			if err := cfg.Validate(); err != nil {
				t.Fatal(err)
			}
			n := build(cfg)

			// Warm up: routing convergence plus two seconds of traffic so
			// every pool and reusable buffer reaches working-set size.
			warm := cfg.Warmup + 2*sim.Second
			n.eng.Run(warm)

			var before, after runtime.MemStats
			ev0 := n.eng.Processed
			runtime.ReadMemStats(&before)
			n.eng.Run(warm + 3*sim.Second)
			runtime.ReadMemStats(&after)
			events := n.eng.Processed - ev0

			if events == 0 {
				t.Fatal("no events in measurement window")
			}
			allocs := after.Mallocs - before.Mallocs
			perEvent := float64(allocs) / float64(events)
			t.Logf("%s: %d allocs over %d events (%.5f allocs/event)", p, allocs, events, perEvent)
			if perEvent > 0.005 {
				t.Errorf("steady state allocates %.5f allocs/event (%d over %d events), want ≤ 0.005",
					perEvent, allocs, events)
			}
		})
	}
}
