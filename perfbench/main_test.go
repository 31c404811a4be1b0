package main

import (
	"bytes"
	"encoding/json"
	"os"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the self-test checks.
type benchmarkSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

// TestWorkloads runs every workload at a tiny packet count in both modes
// and checks that each metric BENCHMARK.json names is printed, and only
// those, with its unit, and that the result is correct: fingerprints
// repeat, the output checks pass and the traced run reproduces the
// untraced one.
func TestWorkloads(t *testing.T) {
	if !testing.Short() {
		t.Skip("runs every workload; use -short")
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, benchmark has %d", len(spec.Workloads), len(workloadNames))
	}
	for i, wl := range spec.Workloads {
		if wl.Name != workloadNames[i] {
			t.Fatalf("workload %d is %q in BENCHMARK.json, %q here", i, wl.Name, workloadNames[i])
		}
		for _, mode := range []struct {
			trace   bool
			metrics []struct{ Name, Unit string }
		}{{false, spec.EndToEnd}, {true, spec.PerLayer}} {
			w, err := newWorkload(wl.Name, 7, 4)
			if err != nil {
				t.Fatal(err)
			}
			var log bytes.Buffer
			b := newBench(w, 7, 0, &log)
			if mode.trace {
				b.perLayer()
			} else {
				b.endToEnd()
			}
			res := b.res
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d\n%s", wl.Name, mode.trace, res.Correct, res.Failed, res.Attempted, log.String())
			}
			if len(res.Metrics) != len(mode.metrics) {
				t.Errorf("%s trace=%v: printed %d metrics, BENCHMARK.json names %d", wl.Name, mode.trace, len(res.Metrics), len(mode.metrics))
			}
			for _, m := range mode.metrics {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", wl.Name, mode.trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"rmac/internal/mac/rmac.(*Node).OnFrameReceived": "mac",
		"rmac/internal/sim.(*Engine).Run":                "sim",
		"rmac/internal/topo.RandomPlacement":             "other",
		"runtime.mallocgc":                               "runtime",
		"internal/runtime/maps.(*Map).getWithKey":        "runtime",
		"time.now":           "other",
		"main.(*tracer).end": "other",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
