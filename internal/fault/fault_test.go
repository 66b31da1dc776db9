package fault

import (
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestParseAllKinds(t *testing.T) {
	s, err := Parse("slow:node=1,at=0.5,for=2,x=4,dev=gpu; net:node=0,at=1,for=1,bw=0.25,lat=2ms;" +
		"pcie:node=1,at=0,for=500ms,bw=0.5; crash:filter=seg,inst=2,at=3;;")
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Events) != 4 {
		t.Fatalf("events = %d, want 4", len(s.Events))
	}
	want := []Event{
		{Kind: Slow, Node: 1, Dev: 1, At: 0.5, Dur: 2, Factor: 4},
		{Kind: Net, Node: 0, Dev: DevAll, At: 1, Dur: 1, Factor: 0.25, Latency: 2 * sim.Millisecond},
		{Kind: PCIe, Node: 1, Dev: DevAll, At: 0, Dur: 0.5, Factor: 0.5},
		{Kind: Crash, Filter: "seg", Instance: 2, At: 3, Dev: DevAll, Factor: 1},
	}
	for i, ev := range s.Events {
		if ev != want[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, want[i])
		}
	}
}

func TestParseRejectsMalformed(t *testing.T) {
	for _, spec := range []string{
		"slow",                                // no colon
		"boom:node=0,at=0,for=1,x=2",          // unknown kind
		"slow:node=0,at=0,for=1",              // missing x
		"slow:node=0,at=0,for=1,x=2,whee=3",   // unknown key
		"slow:node=0,at=0,for=1,x=2,x=3",      // duplicate key
		"slow:node=0,at=0,for=1,x=0",          // non-positive factor
		"slow:node=0,at=-1,for=1,x=2",         // negative start
		"slow:node=0,at=0,for=0,x=2",          // empty window
		"slow:node=zero,at=0,for=1,x=2",       // non-integer node
		"slow:node=0,at=NaN,for=1,x=2",        // NaN time
		"slow:node=0,at=0,for=1,x=Inf",        // infinite factor
		"slow:node=0,at=0,for=1,x=2,dev=tpu",  // unknown device class
		"net:node=0,at=0,for=1",               // no effect given
		"net:node=0,at=0,for=1,bw=-1",         // negative bandwidth scale
		"net:node=0,at=0,for=1,lat=-1ms",      // negative latency
		"crash:filter=,inst=0,at=0",           // empty filter name
		"crash:filter=a;b,inst=0,at=0",        // reserved char (splits into 2 bad events)
		"crash:inst=0,at=0",                   // missing filter
		"crash:filter=seg,inst=1.5,at=0",      // non-integer instance
		"slow:node=0,at=0,for=1,x=2;;garbage", // trailing garbage event
		"slow:node=0,,at=0,for=1,x=2",         // empty kv entry
		"slow:node=0,at 0,for=1,x=2",          // entry without '='
	} {
		if _, err := Parse(spec); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", spec)
		}
	}
}

// TestParseUnknownKeyErrorDeterministic: with several unknown keys the
// reported key must not depend on map iteration order (found auditing for
// scheduling/iteration-order dependencies — the message previously named a
// random member of the leftover set).
func TestParseUnknownKeyErrorDeterministic(t *testing.T) {
	const spec = "slow:node=0,at=0,for=1,x=2,zz=1,aa=2,mm=3"
	_, first := Parse(spec)
	if first == nil {
		t.Fatalf("Parse(%q) succeeded, want error", spec)
	}
	if want := `unknown key "aa" for slow fault`; !strings.HasSuffix(first.Error(), want) {
		t.Fatalf("Parse(%q) error = %q, want suffix %q", spec, first.Error(), want)
	}
	for i := 0; i < 20; i++ {
		if _, err := Parse(spec); err == nil || err.Error() != first.Error() {
			t.Fatalf("run %d: error %v, want stable %v", i, err, first)
		}
	}
}

func TestParseStringRoundTrip(t *testing.T) {
	specs := []string{
		"slow:node=1,at=0.5,for=2,x=4,dev=gpu;net:node=0,at=1,for=1,bw=0.25,lat=0.002",
		"pcie:node=1,at=0,for=0.5,bw=0.5;crash:filter=seg,inst=2,at=3",
	}
	for _, spec := range specs {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		again, err := Parse(s.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", s.String(), err)
		}
		if s.String() != again.String() {
			t.Errorf("round trip drifted: %q -> %q", s.String(), again.String())
		}
	}
}

func TestRandomDeterministicAndScaled(t *testing.T) {
	shape := Shape{Nodes: 4, GPUNodes: []int{0, 1}, Horizon: 10, Filter: "seg", Instances: 4}
	a := Random(7, 0.8, shape)
	b := Random(7, 0.8, shape)
	if a.String() != b.String() {
		t.Fatalf("same seed produced different schedules:\n%s\n%s", a, b)
	}
	if Random(8, 0.8, shape).String() == a.String() {
		t.Fatal("different seeds produced identical schedules")
	}
	if !Random(7, 0, shape).Empty() {
		t.Fatal("intensity 0 must produce an empty schedule")
	}
	if a.Empty() {
		t.Fatal("intensity 0.8 produced no events")
	}
	// Crashes must target distinct instances and never all of them.
	seen := map[int]bool{}
	for _, ev := range a.Events {
		if ev.Kind != Crash {
			continue
		}
		if seen[ev.Instance] {
			t.Fatalf("instance %d crashes twice", ev.Instance)
		}
		seen[ev.Instance] = true
	}
	if len(seen) >= shape.Instances {
		t.Fatal("random schedule crashes every instance")
	}
	// The generated schedule must survive its own spec syntax.
	if _, err := Parse(a.String()); err != nil {
		t.Fatalf("generated schedule does not reparse: %v\n%s", err, a)
	}
}

// buildRun constructs a 2-node source -> worker pipeline, applies the
// schedule, runs it, and returns the makespan plus the per-task process
// counts.
func buildRun(t *testing.T, s *Schedule, pol policy.StreamPolicy) (sim.Time, map[uint64]int) {
	t.Helper()
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1, HasGPU: true}, {CPUCores: 1}}, nil)
	rt := core.New(c, nil)
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 40; i++ {
				emit(&task.Task{Size: 1000, Cost: func(*task.Task, hw.Kind) sim.Time { return sim.Millisecond }})
			}
		},
	})
	seen := make(map[uint64]int)
	wf := rt.AddFilter(core.FilterSpec{
		Name: "worker", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
			seen[tk.ID]++
			return core.Action{}
		},
	})
	rt.Connect(src, wf, pol)
	if err := Apply(rt, s); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res.Makespan, seen
}

func TestApplyEmptyScheduleChangesNothing(t *testing.T) {
	base, _ := buildRun(t, nil, policy.DDFCFS(4))
	empty, _ := buildRun(t, &Schedule{}, policy.DDFCFS(4))
	if base != empty {
		t.Fatalf("empty schedule changed makespan: %v vs %v", base, empty)
	}
}

func TestApplySlowdownDegradesMakespan(t *testing.T) {
	base, seenBase := buildRun(t, nil, policy.DDFCFS(4))
	s, err := Parse("slow:node=0,at=0,for=60,x=8;slow:node=1,at=0,for=60,x=8")
	if err != nil {
		t.Fatal(err)
	}
	slow, seen := buildRun(t, s, policy.DDFCFS(4))
	if slow <= base {
		t.Fatalf("8x slowdown did not degrade makespan: %v vs %v", slow, base)
	}
	if len(seen) != len(seenBase) {
		t.Fatalf("slowdown lost work: %d vs %d tasks", len(seen), len(seenBase))
	}
}

func TestApplyCrashConservesWork(t *testing.T) {
	for _, pol := range []struct {
		name string
		p    policy.StreamPolicy
	}{{"DDFCFS", policy.DDFCFS(4)}, {"DDWRR", policy.DDWRR(4)}, {"ODDS", policy.ODDS()}} {
		t.Run(pol.name, func(t *testing.T) {
			s, err := Parse("crash:filter=worker,inst=1,at=5ms;net:node=1,at=1ms,for=10ms,bw=0.3,lat=1ms")
			if err != nil {
				t.Fatal(err)
			}
			_, seen := buildRun(t, s, pol.p)
			if len(seen) != 40 {
				t.Fatalf("processed %d distinct tasks, want 40", len(seen))
			}
			for id, n := range seen {
				if n != 1 {
					t.Fatalf("task %d processed %d times", id, n)
				}
			}
		})
	}
}

func TestApplyRejectsBadSchedules(t *testing.T) {
	for _, spec := range []string{
		"slow:node=9,at=0,for=1,x=2",    // node out of range
		"pcie:node=1,at=0,for=1,bw=0.5", // node 1 has no GPU
		"slow:node=1,at=0,for=1,x=2,dev=gpu",
		"crash:filter=nosuch,inst=0,at=0",
		"crash:filter=source,inst=0,at=0", // sources cannot crash
		"crash:filter=worker,inst=5,at=0",
		"crash:filter=worker,inst=0,at=0;crash:filter=worker,inst=0,at=1", // duplicate
		"crash:filter=worker,inst=0,at=0;crash:filter=worker,inst=1,at=1", // kills all copies
	} {
		s, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		k := sim.NewKernel(1)
		c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1, HasGPU: true}, {CPUCores: 1}}, nil)
		rt := core.New(c, nil)
		src := rt.AddFilter(core.FilterSpec{
			Name: "source", Placement: []int{0},
			Seed: func(_ int, emit func(*task.Task)) {},
		})
		wf := rt.AddFilter(core.FilterSpec{
			Name: "worker", Placement: []int{0, 1}, CPUWorkers: 1,
			Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
		})
		rt.Connect(src, wf, policy.DDFCFS(2))
		if err := Apply(rt, s); err == nil {
			t.Errorf("Apply(%q) succeeded, want error", spec)
		} else if !strings.Contains(err.Error(), "fault:") {
			t.Errorf("Apply(%q) error %q lacks fault: prefix", spec, err)
		}
	}
}
