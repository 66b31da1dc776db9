package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// crashHarness builds a source -> worker(2 instances) pipeline over two
// single-core nodes and returns the runtime, the worker filter and the
// per-task processing counts map (filled by the handler).
func crashHarness(k *sim.Kernel, nTasks int, pol policy.StreamPolicy) (*Runtime, *Filter, map[uint64]int) {
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < nTasks; i++ {
				emit(&task.Task{Size: 1000, Cost: fixedCost(sim.Millisecond)})
			}
		},
	})
	seen := make(map[uint64]int)
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			seen[t.ID]++
			return Action{}
		},
	})
	rt.Connect(src, wf, pol)
	return rt, wf, seen
}

func checkConserved(t *testing.T, seen map[uint64]int, want int) {
	t.Helper()
	if len(seen) != want {
		t.Fatalf("processed %d distinct tasks, want %d", len(seen), want)
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("task %d processed %d times, want exactly once", id, n)
		}
	}
}

func TestCrashMidRunConservesWork(t *testing.T) {
	for _, tc := range []struct {
		name string
		pol  policy.StreamPolicy
	}{
		{"DDFCFS", policy.DDFCFS(4)},
		{"DDWRR", policy.DDWRR(4)},
		{"ODDS", policy.ODDS()},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := sim.NewKernel(1)
			rt, wf, seen := crashHarness(k, 40, tc.pol)
			rt.K.SpawnStep("killer", func(e *sim.Env) sim.Cont {
				return sim.After(5*sim.Millisecond, func(e *sim.Env) sim.Cont {
					rt.CrashInstance(e, wf, 1)
					return sim.Done()
				})
			})
			res, err := rt.Run()
			if err != nil {
				t.Fatal(err)
			}
			if !wf.Instances()[1].Dead() {
				t.Fatal("instance 1 not marked dead")
			}
			if res.Completed != 40 {
				t.Fatalf("completed = %d, want 40", res.Completed)
			}
			checkConserved(t, seen, 40)
			// The crash must actually have moved buffers: the stream's
			// re-enqueue counter is the recovery path's footprint.
			_, _, reenq := wf.in[0].Stats()
			if reenq == 0 {
				t.Fatal("crash at mid-run re-enqueued nothing; recovery path untested")
			}
		})
	}
}

func TestCrashLastsAndDoubleCrashIsNoop(t *testing.T) {
	k := sim.NewKernel(1)
	rt, wf, seen := crashHarness(k, 30, policy.DDFCFS(4))
	rt.K.SpawnStep("killer", func(e *sim.Env) sim.Cont {
		return sim.After(3*sim.Millisecond, func(e *sim.Env) sim.Cont {
			rt.CrashInstance(e, wf, 0)
			rt.CrashInstance(e, wf, 0) // second crash of the same copy: no-op
			return sim.Done()
		})
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	checkConserved(t, seen, 30)
	if !wf.Instances()[0].Dead() || wf.Instances()[1].Dead() {
		t.Fatal("exactly instance 0 should be dead")
	}
}

func TestCrashAfterCompletionIsNoop(t *testing.T) {
	k := sim.NewKernel(1)
	rt, wf, seen := crashHarness(k, 5, policy.DDFCFS(4))
	rt.K.SpawnStep("late-killer", func(e *sim.Env) sim.Cont {
		return sim.After(10*sim.Second, func(e *sim.Env) sim.Cont { // far past the ~3ms makespan
			rt.CrashInstance(e, wf, 0)
			return sim.Done()
		})
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	checkConserved(t, seen, 5)
	if wf.Instances()[0].Dead() {
		t.Fatal("post-completion crash must be a no-op")
	}
}

func TestCrashProducerRedistributesOutput(t *testing.T) {
	// Chain src -> mid(2) -> sink: crashing a mid instance exercises both
	// the input-queue evacuation and the un-sent-output redistribution, and
	// leaves its sender process behind as a tombstone responder that must
	// not deadlock the sink's requesters.
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 30; i++ {
				emit(&task.Task{Size: 500, Cost: fixedCost(sim.Millisecond)})
			}
		},
	})
	mid := rt.AddFilter(FilterSpec{
		Name: "mid", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			return Action{Forward: []*task.Task{{Size: 100, Cost: fixedCost(sim.Millisecond / 4)}}}
		},
	})
	sinkSeen := make(map[uint64]int)
	sink := rt.AddFilter(FilterSpec{
		Name: "sink", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			sinkSeen[t.ID]++
			return Action{}
		},
	})
	rt.Connect(src, mid, policy.DDWRR(4))
	rt.Connect(mid, sink, policy.DDWRR(4))
	rt.K.SpawnStep("killer", func(e *sim.Env) sim.Cont {
		return sim.After(4*sim.Millisecond, func(e *sim.Env) sim.Cont {
			rt.CrashInstance(e, mid, 0)
			return sim.Done()
		})
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	checkConserved(t, sinkSeen, 30)
	if res.Completed != 60 {
		t.Fatalf("completed = %d, want 60 (30 seeds + 30 forwards)", res.Completed)
	}
}

func TestCheckCrashTarget(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {},
	})
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action { return Action{} },
	})
	lab := rt.AddFilter(FilterSpec{
		Name: "labeled", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action { return Action{} },
	})
	rt.Connect(src, wf, policy.DDFCFS(2))
	rt.ConnectLabeled(wf, lab, policy.DDFCFS(2), func(t *task.Task) uint64 { return t.ID })
	for _, tc := range []struct {
		filter string
		inst   int
		ok     bool
	}{
		{"worker", 0, true},
		{"worker", 1, true},
		{"worker", 2, false},  // out of range
		{"worker", -1, false}, // out of range
		{"source", 0, false},  // sources cannot crash
		{"nosuch", 0, false},  // unknown filter
		{"labeled", 0, false}, // labeled-stream consumer
	} {
		err := rt.CheckCrashTarget(tc.filter, tc.inst)
		if (err == nil) != tc.ok {
			t.Errorf("CheckCrashTarget(%q, %d) = %v, want ok=%v", tc.filter, tc.inst, err, tc.ok)
		}
	}
}

func TestValidateReportsHealthyStats(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt, _, wf := buildSimple(c, 12, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, CPUWorkers: 1}, policy.DDFCFS(2))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	sent, delivered, reenq := wf.in[0].Stats()
	if sent != 12 || delivered != 12 || reenq != 0 {
		t.Fatalf("stats = (%d, %d, %d), want (12, 12, 0)", sent, delivered, reenq)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}
