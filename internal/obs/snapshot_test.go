package obs

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

// TestSnapshotMatchesFinish checks that a snapshot taken at the horizon
// reports the closed aggregates the post-run JSON renders, without
// mutating the live registry.
func TestSnapshotMatchesFinish(t *testing.T) {
	rt := &core.Runtime{}
	r := NewRegistry()
	r.Attach(rt)
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "f", Instance: 0, Queue: "in0", At: 0.0, Depth: 2})
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "f", Instance: 0, Queue: "in0", At: 0.5, Depth: 6})
	rt.Hooks.Process(core.ProcRecord{Filter: "f", Instance: 0, Kind: 0, Start: 0, End: 0.25})

	snap := r.Snapshot(sim.Time(1.0))
	if len(snap.Gauges) != 1 || len(snap.Hists) != 1 || len(snap.Counters) != 2 {
		t.Fatalf("snapshot shape = %d counters, %d gauges, %d hists", len(snap.Counters), len(snap.Gauges), len(snap.Hists))
	}
	// Signal: 2 on [0,0.5), 6 on [0.5,1). Time-weighted mean = 4.
	if g := snap.Gauges[0]; math.Abs(g.Mean-4) > 1e-12 || g.Last != 6 || g.Min != 2 || g.Max != 6 {
		t.Fatalf("gauge snap = %+v, want mean 4 last 6 min 2 max 6", g)
	}
	h := snap.Hists[0]
	if len(h.Levels) != 2 || h.Levels[0] != 2 || h.Levels[1] != 6 {
		t.Fatalf("hist levels = %v, want [2 6]", h.Levels)
	}
	if math.Abs(h.Weights[0]-0.5) > 1e-12 || math.Abs(h.Weights[1]-0.5) > 1e-12 {
		t.Fatalf("hist weights = %v, want [0.5 0.5]", h.Weights)
	}

	// The snapshot closed its own copy; the live registry is untouched, and
	// the JSON rendered at the Finish horizon carries the identical mean.
	r.Finish(sim.Time(1.0))
	if again := r.Snapshot(sim.Time(1.0)); fmt.Sprint(again) != fmt.Sprint(snap) {
		t.Fatalf("snapshot after Finish %+v != snapshot before %+v", again, snap)
	}
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Gauges map[string]struct{ Mean float64 } `json:"gauges"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if g := doc.Gauges["queue_depth{filter=f,inst=0,queue=in0}"]; g.Mean != snap.Gauges[0].Mean {
		t.Fatalf("JSON mean %g != snapshot mean %g", g.Mean, snap.Gauges[0].Mean)
	}
	if !sort.SliceIsSorted(snap.Counters, func(i, j int) bool { return snap.Counters[i].Key < snap.Counters[j].Key }) {
		t.Fatal("counter snaps not key-sorted")
	}
}

// TestSnapshotMidRunDoesNotPerturb takes a mid-run snapshot, keeps feeding
// the registry, and checks the later snapshot sees everything — the
// mid-run read must not have closed or reset any aggregate.
func TestSnapshotMidRunDoesNotPerturb(t *testing.T) {
	rt := &core.Runtime{}
	r := NewRegistry()
	r.Attach(rt)
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "f", Instance: 0, Queue: "in0", At: 0.0, Depth: 3})
	mid := r.Snapshot(sim.Time(0.5))
	if math.Abs(mid.Gauges[0].Mean-3) > 1e-12 {
		t.Fatalf("mid-run mean = %g, want 3", mid.Gauges[0].Mean)
	}
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "f", Instance: 0, Queue: "in0", At: 1.0, Depth: 5})
	end := r.Snapshot(sim.Time(2.0))
	// 3 on [0,1), 5 on [1,2): mean 4.
	if math.Abs(end.Gauges[0].Mean-4) > 1e-12 {
		t.Fatalf("final mean = %g, want 4 (mid-run snapshot perturbed the gauge)", end.Gauges[0].Mean)
	}
	if end.Hists[0].Total() != 2.0 {
		t.Fatalf("final hist weight = %g, want 2", end.Hists[0].Total())
	}
}

// TestSnapshotConcurrent hammers the hook path from one goroutine while
// another snapshots — the mutex must make this race-free (run under
// -race) and every snapshot must be internally consistent.
func TestSnapshotConcurrent(t *testing.T) {
	rt := &core.Runtime{}
	r := NewRegistry()
	r.Attach(rt)
	const events = 2000
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			at := sim.Time(float64(i) * 1e-4)
			rt.Hooks.Process(core.ProcRecord{Filter: "f", Instance: 0, Kind: 0, Start: at, End: at})
			rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "f", Instance: 0, Queue: "in0", At: at, Depth: i % 7})
		}
	}()
	var last int64
	for i := 0; i < 200; i++ {
		snap := r.Snapshot(sim.Time(1.0))
		for _, c := range snap.Counters {
			if c.Key == "events_processed{filter=f,inst=0,dev=CPU}" {
				if c.N < last {
					t.Fatalf("counter went backwards: %d after %d", c.N, last)
				}
				last = c.N
			}
		}
	}
	wg.Wait()
	final := r.Snapshot(sim.Time(1.0))
	for _, c := range final.Counters {
		if c.Key == "events_processed{filter=f,inst=0,dev=CPU}" && c.N != events {
			t.Fatalf("final count = %d, want %d", c.N, events)
		}
	}
}
