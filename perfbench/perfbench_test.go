package main

import (
	"encoding/json"
	"math"
	"os"
	"runtime"
	"testing"

	"repro/internal/serve"
)

// tinyScale shrinks every workload to a few hundred tiles or arrivals.
const tinyScale = 0.05

// TestMetricsMatchBenchmarkJSON keeps BENCHMARK.json and the program's
// metric catalogue in step: same workloads, same names, same units, in the
// same order.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct{ Name, Unit string }
	var doc struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(doc.Workloads), len(workloadNames))
	}
	for i, w := range doc.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, program %q", i, w.Name, workloadNames[i])
		}
	}
	for _, c := range []struct {
		kind  string
		json  []named
		specs []metricSpec
	}{{"end_to_end", doc.EndToEnd, endToEndSpecs}, {"per_layer", doc.PerLayer, perLayerSpecs}} {
		if len(c.json) != len(c.specs) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", c.kind, len(c.json), len(c.specs))
		}
		for i, m := range c.json {
			if s := c.specs[i]; m.Name != s.name || m.Unit != s.unit {
				t.Errorf("%s %d: BENCHMARK.json %s [%s], program %s [%s]", c.kind, i, m.Name, m.Unit, s.name, s.unit)
			}
		}
	}
}

// TestWorkloadsRunAndPrintEveryMetric runs every workload at a tiny size,
// untraced and traced: each passes its output checks and prints every
// metric, and every end-to-end metric is positive.
func TestWorkloadsRunAndPrintEveryMetric(t *testing.T) {
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			b := &bench{workload: name, seed: 2, scale: tinyScale}
			specs := endToEndSpecs
			if traced {
				b.tr = newTracer()
				specs = perLayerSpecs
			}
			res := b.run(newWorkload(name))
			if !res.Correct || res.Failed != 0 || res.Attempted < setupReps+1 {
				t.Errorf("%s traced=%v: correct %v, %d of %d operations failed", name, traced, res.Correct, res.Failed, res.Attempted)
			}
			if len(b.missing) > 0 {
				t.Errorf("%s traced=%v: not measured: %v", name, traced, b.missing)
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.name]
				switch {
				case !ok || m.Unit != s.unit:
					t.Errorf("%s traced=%v: metric %s missing or without unit %s", name, traced, s.name, s.unit)
				case !traced && m.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v", name, s.name, m.Value)
				}
			}
		}
	}
}

// TestAllocCountRepeats requires the Go heap allocations of a timed
// execution to repeat within 0.01% between runs of the same seed. A quarter
// of each workload is large enough that the few allocations the runtime
// itself varies stay far below that.
func TestAllocCountRepeats(t *testing.T) {
	for _, name := range workloadNames {
		w := newWorkload(name)
		b := &bench{workload: name, seed: 3, scale: 0.25}
		var counts [3]float64 // the first run warms up
		for i := range counts {
			if sw, ok := w.(*serveWorkload); ok {
				sw.executions = 0 // replay the same schedule
			}
			runtime.GC()
			s, err := w.iterate(b)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			counts[i] = float64(s.mallocs)
		}
		if a, c := counts[1], counts[2]; math.Abs(a-c) > 1e-4*a {
			t.Errorf("%s: alloc_count %v then %v", name, a, c)
		}
	}
}

// TestLiveReplayMatchesDrain requires the paced replay of a schedule to end
// on the same final frame as a one-shot drain of it: pacing decides only
// when the simulation is observed, never what it does.
func TestLiveReplayMatchesDrain(t *testing.T) {
	b := &bench{workload: "serve_drain", seed: 4, scale: 1}
	times := schedule(b.seed, 500)
	var frames [2]serve.Frame
	w := &serveWorkload{arrivals: len(times)}
	for i, live := range []bool{false, true} {
		r, _, err := w.execute(b, times, live)
		if err != nil {
			t.Fatal(err)
		}
		if live && len(r.ticks) < 100 {
			t.Fatalf("replay took %d ticks, want one per 0.5 ms virtual", len(r.ticks))
		}
		if _, err := w.check(b, 0, len(times), r.final); err != nil {
			t.Fatal(err)
		}
		frames[i] = r.final
	}
	if a, c := digest(frames[0]), digest(frames[1]); a != c {
		t.Fatalf("final frames differ:\ndrain %+v\nlive  %+v", frames[0], frames[1])
	}
}
