package core

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// buildSimple constructs a source -> worker pipeline over the given cluster
// nodes with nTasks fixed-cost tasks and returns the runtime and filters.
func buildSimple(c *hw.Cluster, nTasks int, cost task.CostFunc, workerSpec FilterSpec, pol policy.StreamPolicy) (*Runtime, *Filter, *Filter) {
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < nTasks; i++ {
				emit(&task.Task{Size: 1000, OutSize: 100, Cost: cost})
			}
		},
	})
	if workerSpec.Name == "" {
		workerSpec.Name = "worker"
	}
	if workerSpec.Handler == nil {
		workerSpec.Handler = func(ctx *Ctx, t *task.Task) Action { return Action{} }
	}
	wf := rt.AddFilter(workerSpec)
	rt.Connect(src, wf, pol)
	return rt, src, wf
}

func fixedCost(d sim.Time) task.CostFunc {
	return func(*task.Task, hw.Kind) sim.Time { return d }
}

func TestSingleCPUWorkerProcessesSerially(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt, _, _ := buildSimple(c, 10, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, CPUWorkers: 1}, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("completed = %d", res.Completed)
	}
	if res.Makespan < 10*sim.Millisecond || res.Makespan > 11*sim.Millisecond {
		t.Fatalf("makespan = %v, want ~10ms", res.Makespan)
	}
}

func TestTwoCPUWorkersHalveMakespan(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}}, nil)
	rt, _, _ := buildSimple(c, 10, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, CPUWorkers: 2}, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan > 6*sim.Millisecond {
		t.Fatalf("makespan = %v, want ~5ms", res.Makespan)
	}
}

func TestEmptyJobCompletesImmediately(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt, _, _ := buildSimple(c, 0, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, CPUWorkers: 1}, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan != 0 || res.Completed != 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestResubmitLoop(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 5; i++ {
				emit(&task.Task{Size: 100, Cost: fixedCost(sim.Millisecond), Payload: 0})
			}
		},
	})
	wf := rt.AddFilter(FilterSpec{
		Name:       "worker",
		Placement:  []int{0},
		CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			if gen := t.Payload.(int); gen == 0 {
				return Action{Resubmit: []*task.Task{{
					Size: 100, Cost: fixedCost(sim.Millisecond), Payload: 1,
				}}}
			}
			return Action{}
		},
	})
	rt.Connect(src, wf, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 10 {
		t.Fatalf("completed = %d, want 10 (5 seeds + 5 resubmits)", res.Completed)
	}
}

func TestForwardChain(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 8; i++ {
				emit(&task.Task{Size: 100, Cost: fixedCost(sim.Millisecond)})
			}
		},
	})
	mid := rt.AddFilter(FilterSpec{
		Name:       "mid",
		Placement:  []int{0},
		CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			return Action{Forward: []*task.Task{{
				Size: 50, Cost: fixedCost(sim.Millisecond / 2),
			}}}
		},
	})
	sinkCount := 0
	sink := rt.AddFilter(FilterSpec{
		Name:       "sink",
		Placement:  []int{0},
		CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			sinkCount++
			return Action{}
		},
	})
	rt.Connect(src, mid, policy.DDFCFS(2))
	rt.Connect(mid, sink, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if sinkCount != 8 {
		t.Fatalf("sink saw %d tasks, want 8", sinkCount)
	}
	if res.Completed != 16 {
		t.Fatalf("completed lineages = %d, want 16", res.Completed)
	}
}

func TestWRRSteersTasksToBestDevice(t *testing.T) {
	// Mixed workload: half the tasks are GPU-friendly (speedup 30), half
	// are not (speedup 1). Under a sorted receiver queue (DDWRR) the GPU
	// must take the high-speedup tasks, the CPU the low-speedup ones.
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
	rt := New(c, nil)
	cost := func(kind hw.Kind, friendly bool) sim.Time {
		if kind == hw.GPU && friendly {
			return sim.Millisecond / 30
		}
		return sim.Millisecond
	}
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 40; i++ {
				friendly := i%2 == 0
				tk := &task.Task{Size: 1000, OutSize: 100, Payload: friendly,
					Cost: func(_ *task.Task, kd hw.Kind) sim.Time { return cost(kd, friendly) }}
				tk.Weight[hw.CPU] = 1
				if friendly {
					tk.Weight[hw.GPU] = 30
				} else {
					tk.Weight[hw.GPU] = 1
				}
				tk.ComputeKeys()
				emit(tk)
			}
		},
	})
	byKind := map[hw.Kind]map[bool]int{hw.CPU: {}, hw.GPU: {}}
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0}, UseGPU: true, CPUWorkers: 1, AsyncCopy: true,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			byKind[ctx.Kind][t.Payload.(bool)]++
			return Action{}
		},
	})
	rt.Connect(src, wf, policy.DDWRR(4))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// The GPU must get (almost) all the GPU-friendly tasks; the CPU must
	// get (almost) none of them. The GPU picking up leftover unfriendly
	// tasks when otherwise idle is correct DDWRR behaviour (cf. Table 4,
	// where the GPU still processes ~15% of the low-resolution tiles).
	gpuFriendly := byKind[hw.GPU][true]
	cpuFriendly := byKind[hw.CPU][true]
	if gpuFriendly < 18 {
		t.Fatalf("GPU took only %d/20 friendly tasks (profile: %v)", gpuFriendly, byKind)
	}
	if cpuFriendly > 2 {
		t.Fatalf("CPU took %d friendly tasks (profile: %v)", cpuFriendly, byKind)
	}
}

func TestMultiNodeDistributesLoad(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 60; i++ {
				emit(&task.Task{Size: 1000, Cost: fixedCost(sim.Millisecond)})
			}
		},
	})
	perNode := map[int]int{}
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1, 2}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, t *task.Task) Action {
			perNode[ctx.Node.ID]++
			return Action{}
		},
	})
	rt.Connect(src, wf, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 60 {
		t.Fatalf("completed = %d", res.Completed)
	}
	for n := 0; n < 3; n++ {
		if perNode[n] < 10 {
			t.Fatalf("node %d processed only %d tasks: %v", n, perNode[n], perNode)
		}
	}
	// 60 tasks, 3 single-core nodes, 1ms each: ideal 20ms.
	if res.Makespan > 30*sim.Millisecond {
		t.Fatalf("makespan = %v, want near 20ms", res.Makespan)
	}
}

func TestODDSAdaptsTargets(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 2}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 200; i++ {
				emit(&task.Task{Size: 50000, Cost: fixedCost(100 * sim.Microsecond)})
			}
		},
	})
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{1}, CPUWorkers: 2,
		Handler: func(ctx *Ctx, t *task.Task) Action { return Action{} },
	})
	rt.Connect(src, wf, policy.ODDS())
	var targets []TargetRecord
	rt.Hooks.Target = func(rec TargetRecord) { targets = append(targets, rec) }
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Request latency (network hop + 0.4ms transfer) far exceeds the 0.1ms
	// processing time, so DQAA must raise targets above the initial 1.
	maxTarget := 0
	for _, rec := range targets {
		if rec.Target > maxTarget {
			maxTarget = rec.Target
		}
	}
	if maxTarget < 3 {
		t.Fatalf("DQAA never grew targets (max %d over %d changes)", maxTarget, len(targets))
	}
}

func TestOnProcessRecords(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt, _, _ := buildSimple(c, 7, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, CPUWorkers: 1}, policy.DDFCFS(2))
	var recs []ProcRecord
	rt.Hooks.Process = func(r ProcRecord) { recs = append(recs, r) }
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if len(recs) != 7 {
		t.Fatalf("records = %d", len(recs))
	}
	for _, r := range recs {
		if r.End < r.Start || r.Kind != hw.CPU || r.Filter != "worker" {
			t.Fatalf("bad record %+v", r)
		}
	}
}

func TestDeterministicMakespan(t *testing.T) {
	run := func() sim.Time {
		k := sim.NewKernel(99)
		c := hw.HeterogeneousCluster(k, 4)
		rt := New(c, nil)
		src := rt.AddFilter(FilterSpec{
			Name: "source", Placement: []int{0},
			Seed: func(_ int, emit func(*task.Task)) {
				for i := 0; i < 100; i++ {
					emit(&task.Task{Size: 3000, OutSize: 64, Cost: fixedCost(sim.Millisecond)})
				}
			},
		})
		wf := rt.AddFilter(FilterSpec{
			Name: "worker", Placement: []int{0, 1, 2, 3}, UseGPU: true, CPUWorkers: -1, AsyncCopy: true,
			Handler: func(ctx *Ctx, t *task.Task) Action { return Action{} },
		})
		rt.Connect(src, wf, policy.ODDS())
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic makespan: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("makespan = %v", a)
	}
}

func TestGPUOnlyConfiguration(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
	rt, _, wf := buildSimple(c, 10, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, UseGPU: true, CPUWorkers: 0, AsyncCopy: true},
		policy.DDFCFS(4))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	kinds := wf.Instances()[0].WorkerKinds()
	if len(kinds) != 1 || kinds[0] != hw.GPU {
		t.Fatalf("worker kinds = %v, want [GPU]", kinds)
	}
	if res.Completed != 10 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestWorkerConstructionReservesManagerCore(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
	rt, _, wf := buildSimple(c, 1, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, UseGPU: true, CPUWorkers: -1, AsyncCopy: true},
		policy.DDFCFS(2))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := wf.Instances()[0].WorkerKinds()
	// 2 cores with GPU: 1 manager + 1 CPU worker + the GPU itself.
	if fmt.Sprint(kinds) != "[GPU CPU]" {
		t.Fatalf("worker kinds = %v, want [GPU CPU]", kinds)
	}
}

// randFor and quickCheck are small local helpers for property tests.
func randFor(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

func quickCheck(f func(int64) bool, n int) error {
	return quick.Check(func(seed int64) bool { return f(seed) }, &quick.Config{MaxCount: n})
}
