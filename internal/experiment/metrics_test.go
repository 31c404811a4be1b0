package experiment

import (
	"context"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"rmac/internal/app"
	"rmac/internal/fault"
	"rmac/internal/frame"
	"rmac/internal/metrics"
	"rmac/internal/phy"
	"rmac/internal/sim"
)

// TestRunMetricsNames guards the naming convention: every family the run
// layer registers must pass metrics.CheckName (the same lint CI applies
// to a live scrape).
func TestRunMetricsNames(t *testing.T) {
	r := metrics.NewRegistry()
	NewRunMetrics(r)
	if n := len(r.Names()); n == 0 {
		t.Fatal("no families registered")
	}
	// Registration itself panics on a bad name, so reaching here means
	// they all validated; spot-check the vocabulary is the expected one.
	names := strings.Join(r.Names(), "\n")
	for _, want := range []string{
		"rmac_kernel_events_total",
		"rmac_kernel_medium_events_total",
		"rmac_kernel_shard_windows_total",
		"rmac_kernel_shard_messages_total",
		"rmac_kernel_shard_stalls_total",
		"rmac_kernel_shard_stall_wait_seconds",
		"rmac_proto_reliable_delivered_total",
		"rmac_proto_audit_violations_total",
	} {
		if !strings.Contains(names, want) {
			t.Errorf("family %s not registered; have:\n%s", want, names)
		}
	}
}

// TestMetricsRegistryFromRun runs a small simulation, on one engine and
// on two shards, and checks the rendered registry agrees with the
// RunResult it came from.
func TestMetricsRegistryFromRun(t *testing.T) {
	for _, cfg := range []Config{smallConfig(), shardConfig(2)} {
		t.Run(fmt.Sprintf("shards%d", cfg.Shards), func(t *testing.T) {
			testMetricsRegistryFromRun(t, cfg)
		})
	}
}

func testMetricsRegistryFromRun(t *testing.T, cfg Config) {
	cfg.TimerStats = true
	res := Run(cfg)
	if res.Failed {
		t.Fatal(res.FailReason)
	}

	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	rm.AddRun(&res)

	if got := rm.Events.Value(); got != res.Events {
		t.Errorf("events_total = %d, want %d", got, res.Events)
	}
	p := int(cfg.Protocol)
	if got := rm.Generated.At(p).Value(); got != res.Metrics.Generated {
		t.Errorf("generated_total = %d, want %d", got, res.Metrics.Generated)
	}
	if got := rm.ReliableDeliv.At(p).Value(); got != res.Totals.ReliableDelivered {
		t.Errorf("reliable_delivered_total = %d, want %d", got, res.Totals.ReliableDelivered)
	}
	if rm.Runs.At(p).Value() != 1 {
		t.Errorf("runs_total = %d, want 1", rm.Runs.At(p).Value())
	}
	// A run schedules many timers; the census families must be non-empty
	// when TimerStats was on.
	var placed uint64
	for i := 0; i < rm.TimerPlaced.Len(); i++ {
		placed += rm.TimerPlaced.At(i).Value()
	}
	if placed == 0 {
		t.Error("timer_scheduled_total is zero with TimerStats enabled")
	}
	if placed != res.TimerStats.TotalScheduled() {
		t.Errorf("timer_scheduled_total = %d, want %d", placed, res.TimerStats.TotalScheduled())
	}
	if cfg.Shards > 1 {
		// The merged census is the sum of the shards' own censuses
		// (rebuilt here: the run is deterministic in (Seed, Shards)).
		sr := buildSharded(cfg)
		if again := sr.run(context.Background()); again.Failed {
			t.Fatal(again.FailReason)
		}
		var sum uint64
		for _, st := range sr.stacks {
			sum += st.tstats.TotalScheduled()
		}
		if got := res.TimerStats.TotalScheduled(); got != sum {
			t.Errorf("sharded TotalScheduled = %d, want the shards' sum %d", got, sum)
		}
	}

	// Frame-pool conservation: acquired = released + live.
	acq, rel := rm.FrameAcquired.Value(), rm.FrameReleased.Value()
	if acq != rel+uint64(res.Totals.FramePool.Live) {
		t.Errorf("frame pool: acquired %d != released %d + live %d",
			acq, rel, res.Totals.FramePool.Live)
	}

	// The standalone registry renders without error and carries the
	// run-scoped gauges.
	var sb strings.Builder
	if _, err := MetricsRegistry(&res).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"rmac_kernel_arena_slots ",
		"rmac_kernel_frame_live_frames ",
		`rmac_proto_runs_total{protocol="RMAC"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestShardMetricsFold runs a small mobile sharded simulation and checks
// the rmac_kernel_shard_* families — including the epoch rollover and
// ghost churn counters — reflect its per-shard scheduler stats.
func TestShardMetricsFold(t *testing.T) {
	cfg := shardConfig(2)
	cfg.Scenario = Speed1
	res := Run(cfg)
	if res.Failed {
		t.Fatal(res.FailReason)
	}
	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	rm.AddRun(&res)

	var windows, out, in, stalls, hist, epochs, adds, dels uint64
	for _, ss := range res.Shards {
		windows += ss.Windows
		out += ss.MsgsOut
		in += ss.MsgsIn
		stalls += ss.Stalls
		for _, n := range ss.StallHist {
			hist += n
		}
		epochs += ss.Epochs
		adds += ss.GhostAdds
		dels += ss.GhostDels
	}
	if epochs == 0 {
		t.Error("mobile sharded run crossed no epoch boundaries")
	}
	if got := rm.ShardEpochs.Value(); got != epochs {
		t.Errorf("shard_epoch_rollovers_total = %d, want %d", got, epochs)
	}
	if got := rm.ShardGhosts.At(0).Value(); got != adds {
		t.Errorf("shard_epoch_ghosts_total{add} = %d, want %d", got, adds)
	}
	if got := rm.ShardGhosts.At(1).Value(); got != dels {
		t.Errorf("shard_epoch_ghosts_total{del} = %d, want %d", got, dels)
	}
	if got := rm.ShardWindows.Value(); got != windows {
		t.Errorf("shard_windows_total = %d, want %d", got, windows)
	}
	if got := rm.ShardMessages.At(0).Value(); got != out {
		t.Errorf("shard_messages_total{out} = %d, want %d", got, out)
	}
	if got := rm.ShardMessages.At(1).Value(); got != in {
		t.Errorf("shard_messages_total{in} = %d, want %d", got, in)
	}
	if got := rm.ShardStalls.Value(); got != stalls {
		t.Errorf("shard_stalls_total = %d, want %d", got, stalls)
	}
	if got := rm.ShardStallWait.Count(); got != hist {
		t.Errorf("shard_stall_wait_seconds count = %d, want %d", got, hist)
	}
	var sb strings.Builder
	if _, err := MetricsRegistry(&res).WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "rmac_kernel_shard_stall_wait_seconds_bucket") {
		t.Error("exposition missing shard stall histogram buckets")
	}
}

// TestAddRunAllocs pins the fold path at zero allocations: attaching a
// registry to whole runs costs nothing per run beyond registration.
func TestAddRunAllocs(t *testing.T) {
	cfg := smallConfig()
	cfg.TimerStats = true
	res := Run(cfg)
	r := metrics.NewRegistry()
	rm := NewRunMetrics(r)
	if n := testing.AllocsPerRun(100, func() { rm.AddRun(&res) }); n != 0 {
		t.Errorf("AddRun allocates %v times per run, want 0", n)
	}
}

// TestTotalsDeterministic confirms the new Totals aggregation is part of
// the deterministic surface: equal seeds, equal totals.
func TestTotalsDeterministic(t *testing.T) {
	cfg := smallConfig()
	a, b := Run(cfg), Run(cfg)
	if a.Totals != b.Totals {
		t.Fatalf("totals differ across identical runs:\n%+v\n%+v", a.Totals, b.Totals)
	}
}

// TestStatsAddCoversEveryField pins the reducer's merge methods against a
// field added to a stats struct but not to its Add: every numeric field
// (array elements included) is set to a distinct non-zero value, the
// struct is added into a zero value twice, and every field must come out
// doubled — except app.Metrics.DelayMax, which keeps the maximum, and
// app.Metrics.Nodes, the network size, which Add leaves at zero.
func TestStatsAddCoversEveryField(t *testing.T) {
	// check fills *src, runs add twice and compares *dst field by field
	// against factor× *src (2 unless factor names the field).
	check := func(name string, src, dst any, add func(), factor map[string]int) {
		fill(reflect.ValueOf(src).Elem(), new(int64))
		add()
		add()
		s, d := reflect.ValueOf(src).Elem(), reflect.ValueOf(dst).Elem()
		for i := 0; i < s.NumField(); i++ {
			f := s.Type().Field(i).Name
			k, ok := factor[f]
			if !ok {
				k = 2
			}
			compareScaled(t, name+"."+f, s.Field(i), d.Field(i), int64(k))
		}
	}
	var ms, ms2 phy.MediumStats
	check("phy.MediumStats", &ms, &ms2, func() { ms2.Add(ms) }, nil)
	var ps, ps2 frame.PoolStats
	check("frame.PoolStats", &ps, &ps2, func() { ps2.Add(ps) }, nil)
	var fs, fs2 fault.Stats
	check("fault.Stats", &fs, &fs2, func() { fs2.Add(fs) }, nil)
	var am, am2 app.Metrics
	check("app.Metrics", &am, &am2, func() { am2.Add(am) }, map[string]int{"DelayMax": 1, "Nodes": 0})
	var ts, ts2 sim.TimerStats
	check("sim.TimerStats", &ts, &ts2, func() { ts2.Add(&ts) }, nil)
}

// fill sets every numeric leaf of v to the next value of *next (from 1).
func fill(v reflect.Value, next *int64) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			fill(v.Field(i), next)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			fill(v.Index(i), next)
		}
	case reflect.Int, reflect.Int64:
		*next++
		v.SetInt(*next)
	case reflect.Uint64:
		*next++
		v.SetUint(uint64(*next))
	default:
		panic("fill: unhandled kind " + v.Kind().String())
	}
}

// compareScaled asserts every numeric leaf of got is k× that of src.
func compareScaled(t *testing.T, name string, src, got reflect.Value, k int64) {
	t.Helper()
	switch src.Kind() {
	case reflect.Array:
		for i := 0; i < src.Len(); i++ {
			compareScaled(t, fmt.Sprintf("%s[%d]", name, i), src.Index(i), got.Index(i), k)
		}
	case reflect.Int, reflect.Int64:
		if want := src.Int() * k; got.Int() != want {
			t.Errorf("%s = %d after two Adds of %d, want %d", name, got.Int(), src.Int(), want)
		}
	case reflect.Uint64:
		if want := src.Uint() * uint64(k); got.Uint() != want {
			t.Errorf("%s = %d after two Adds of %d, want %d", name, got.Uint(), src.Uint(), want)
		}
	default:
		t.Fatalf("%s: unhandled kind %v", name, src.Kind())
	}
}
