package experiment

import (
	"bytes"
	"strings"
	"testing"

	"rmac/internal/fault"
	"rmac/internal/mac"
)

// TestSweepSurvivesPanickingRun is the crash-proofing acceptance test: one
// seed of a sweep panics inside the simulation, and the sweep must report
// exactly one Failed result — with the captured stack — while the other
// seeds aggregate normally.
func TestSweepSurvivesPanickingRun(t *testing.T) {
	const seeds = 4
	poison := int64(2)*7919 + int64(Stationary) + 1 // seed index 2's derived seed
	testHookPreRun = func(cfg Config) {
		if cfg.Seed == poison {
			panic("injected test panic")
		}
	}
	defer func() { testHookPreRun = nil }()

	cfg := smallConfig()
	points := RunSweep(Sweep{
		Base:      cfg,
		Protocols: []Protocol{RMAC},
		Scenarios: []Scenario{Stationary},
		Rates:     []float64{cfg.Rate},
		Seeds:     seeds,
	})
	if len(points) != 1 {
		t.Fatalf("expected 1 point, got %d", len(points))
	}
	p := points[0]
	if p.FailedRuns != 1 {
		t.Fatalf("FailedRuns = %d, want 1", p.FailedRuns)
	}
	var failed *RunResult
	healthy := 0
	for i := range p.Runs {
		if p.Runs[i].Failed {
			failed = &p.Runs[i]
		} else {
			healthy++
		}
	}
	if failed == nil {
		t.Fatal("no Failed run in point.Runs")
	}
	if !strings.Contains(failed.FailReason, "injected test panic") {
		t.Errorf("FailReason = %q, want the injected panic message", failed.FailReason)
	}
	if failed.Stack == "" {
		t.Error("Failed run carries no stack trace")
	}
	if healthy != seeds-1 {
		t.Errorf("healthy runs = %d, want %d", healthy, seeds-1)
	}
	if p.Delivery <= 0 {
		t.Errorf("surviving seeds were not aggregated: Delivery = %g", p.Delivery)
	}
}

// TestInvalidConfigFails verifies satellite (a): an unsimulatable
// configuration yields a Failed result with a message, never a panic.
func TestInvalidConfigFails(t *testing.T) {
	cfg := smallConfig()
	cfg.Nodes = 1
	res := Run(cfg)
	if !res.Failed {
		t.Fatal("Run accepted a 1-node configuration")
	}
	if !strings.Contains(res.FailReason, "at least 2 nodes") {
		t.Errorf("FailReason = %q, want the node-count message", res.FailReason)
	}

	bad := smallConfig()
	bad.Fault.Burst = fault.BurstConfig{Enabled: true, BERBad: 2}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted an out-of-range burst BER")
	}
	bad = smallConfig()
	bad.Protocol = Protocol(len(Protocols))
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a protocol outside the table")
	}
}

// TestWatchdogAbortReportsPartialStats verifies a run cut off by the
// event-budget watchdog still reports the metrics of its simulated prefix.
func TestWatchdogAbortReportsPartialStats(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxEvents = 20_000 // far below the ~10^5+ events a full run needs
	res := Run(cfg)
	if res.Failed {
		t.Fatalf("watchdog abort must not be a failure: %s", res.FailReason)
	}
	if !res.Aborted {
		t.Fatal("run was not aborted despite a tiny event budget")
	}
	if !strings.Contains(res.AbortReason, "event budget") {
		t.Errorf("AbortReason = %q, want an event-budget message", res.AbortReason)
	}
	if res.Events == 0 || res.Events > cfg.MaxEvents {
		t.Errorf("Events = %d, want in (0, %d]", res.Events, cfg.MaxEvents)
	}
	// The prefix still produced a tree and per-node stats.
	if res.Tree.Reachable == 0 {
		t.Error("partial result carries no tree stats")
	}

	// Aborted runs are averaged (with a marker), not discarded.
	var pt Point
	pt.Runs = []RunResult{res}
	pt.aggregate()
	if pt.AbortedRuns != 1 || pt.FailedRuns != 0 {
		t.Errorf("aggregate: AbortedRuns=%d FailedRuns=%d, want 1 and 0", pt.AbortedRuns, pt.FailedRuns)
	}
}

// stubMAC is a minimal mac.MAC with scripted liveness, for auditing.
type stubMAC struct {
	mac.MAC
	l mac.Liveness
}

func (s stubMAC) Liveness() mac.Liveness { return s.l }

// plainMAC implements mac.MAC but not LivenessReporter.
type plainMAC struct{ mac.MAC }

func TestAuditLiveness(t *testing.T) {
	macs := []mac.MAC{
		stubMAC{l: mac.Liveness{State: "idle", Idle: true}},        // healthy idle
		stubMAC{l: mac.Liveness{State: "wait_cts", Pending: true}}, // busy but armed
		stubMAC{l: mac.Liveness{State: "wait_ack", Idle: false}},   // deadlocked
		plainMAC{}, // no reporter: skipped
		stubMAC{l: mac.Liveness{State: "defer", Idle: true, Pending: true}}, // idle wins
	}
	got := auditLiveness(macs)
	if len(got) != 1 {
		t.Fatalf("flagged %d nodes, want 1: %+v", len(got), got)
	}
	if got[0].Node != 2 || got[0].State != "wait_ack" {
		t.Errorf("flagged %+v, want node 2 in wait_ack", got[0])
	}
}

// TestFaultRunDeterministicDegradation runs a small simulation under heavy
// impairment twice: both runs must agree bit-for-bit, show the fault layer
// actually fired, and deliver less than the clean channel does.
func TestFaultRunDeterministicDegradation(t *testing.T) {
	clean := Run(smallConfig())

	cfg := smallConfig()
	cfg.Fault = fault.Config{Burst: fault.BurstAt(0.4), Churn: fault.ChurnAt(0.8)}
	a := Run(cfg)
	b := Run(cfg)

	if goldenFaultString(a) != goldenFaultString(b) {
		t.Errorf("identical-seed faulty runs diverged\nfirst:  %s\nsecond: %s",
			goldenFaultString(a), goldenFaultString(b))
	}
	if a.Fault.BurstErrors == 0 {
		t.Error("burst model enabled but corrupted no frames")
	}
	if a.Crashes == 0 || a.Fault.Crashes != a.Crashes {
		t.Errorf("churn crashes: injector=%d medium=%d, want equal and nonzero",
			a.Fault.Crashes, a.Crashes)
	}
	if a.Delivery >= clean.Delivery {
		t.Errorf("impaired delivery %g not below clean delivery %g", a.Delivery, clean.Delivery)
	}
	if len(a.Deadlocks) != 0 {
		t.Errorf("liveness audit flagged nodes under faults: %+v", a.Deadlocks)
	}
}

// TestResilienceSweep smoke-tests the grid runner and both writers.
func TestResilienceSweep(t *testing.T) {
	cfg := smallConfig()
	cfg.Packets = 20
	levels := []ResilienceLevel{
		{Name: "clean", Fault: fault.Config{}},
		{Name: "burst=0.40", Fault: fault.Config{Burst: fault.BurstAt(0.4)}},
	}
	points := RunResilienceSweep(ResilienceSweep{
		Base:      cfg,
		Protocols: []Protocol{RMAC, BMMM},
		Levels:    levels,
		Seeds:     2,
	})
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	// Level-major ordering: both protocols of a level are adjacent.
	if points[0].Level.Name != "clean" || points[1].Level.Name != "clean" {
		t.Errorf("points not level-major: %s then %s", points[0].Level.Name, points[1].Level.Name)
	}
	for _, p := range points {
		if len(p.Runs) != 2 || p.FailedRuns != 0 {
			t.Errorf("%v/%s: runs=%d failed=%d", p.Protocol, p.Level.Name, len(p.Runs), p.FailedRuns)
		}
		if p.Level.Name == "clean" && p.BurstErrors != 0 {
			t.Errorf("%v clean level reports %d burst errors", p.Protocol, p.BurstErrors)
		}
		if p.Level.Name != "clean" && p.BurstErrors == 0 {
			t.Errorf("%v impaired level reports no burst errors", p.Protocol)
		}
	}

	var tbl bytes.Buffer
	WriteResilienceTable(&tbl, points)
	out := tbl.String()
	if strings.Count(out, "-- clean --") != 1 || strings.Count(out, "-- burst=0.40 --") != 1 {
		t.Errorf("table missing level blocks:\n%s", out)
	}
	if strings.Count(out, "RMAC") != 2 || strings.Count(out, "BMMM") != 2 {
		t.Errorf("table missing protocol rows:\n%s", out)
	}

	var csv bytes.Buffer
	if err := WriteResilienceCSV(&csv, points); err != nil {
		t.Fatalf("WriteResilienceCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 1+len(points) {
		t.Errorf("CSV has %d lines, want %d", len(lines), 1+len(points))
	}
	if !strings.HasPrefix(lines[0], "protocol,level,delivery") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// TestDefaultLevels sanity-checks the canned level ladders.
func TestDefaultLevels(t *testing.T) {
	bl := DefaultBurstLevels()
	if len(bl) == 0 || bl[0].Fault.Enabled() {
		t.Errorf("burst ladder must start with a clean level: %+v", bl)
	}
	cl := DefaultChurnLevels()
	if len(cl) == 0 || cl[0].Fault.Enabled() {
		t.Errorf("churn ladder must start with a clean level: %+v", cl)
	}
	for _, lv := range append(bl[1:], cl[1:]...) {
		if !lv.Fault.Enabled() {
			t.Errorf("level %s is unexpectedly inert", lv.Name)
		}
	}
}

// TestWatchdogWallClock exercises the wall-clock budget path end to end
// with a budget no simulation can beat.
func TestWatchdogWallClock(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxWall = 1 // 1ns: aborts at the first watchdog check
	res := Run(cfg)
	if !res.Aborted {
		t.Fatal("run was not aborted despite a 1ns wall budget")
	}
	if !strings.Contains(res.AbortReason, "wall") {
		t.Errorf("AbortReason = %q, want a wall-clock message", res.AbortReason)
	}
}
