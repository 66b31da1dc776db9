package core

import (
	"strings"
	"testing"

	"repro/internal/estimator"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestLabeledStreamRoutesByLabel(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 90; i++ {
				emit(&task.Task{Size: 100, Payload: uint64(i % 9),
					Cost: fixedCost(sim.Millisecond)})
			}
		},
	})
	// Route by key: every task with the same key must land on the same
	// transparent copy (partitioned state).
	keyOf := func(tk *task.Task) uint64 { return tk.Payload.(uint64) }
	seen := map[uint64]map[int]bool{}
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1, 2}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			key := keyOf(tk)
			if seen[key] == nil {
				seen[key] = map[int]bool{}
			}
			seen[key][ctx.Instance] = true
			return Action{}
		},
	})
	rt.ConnectLabeled(src, wf, policy.DDFCFS(2), keyOf)
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 90 {
		t.Fatalf("completed = %d", res.Completed)
	}
	usedInstances := map[int]bool{}
	for key, insts := range seen {
		if len(insts) != 1 {
			t.Fatalf("key %d processed on %d instances, want exactly 1", key, len(insts))
		}
		for i := range insts {
			usedInstances[i] = true
		}
	}
	if len(usedInstances) != 3 {
		t.Fatalf("labels spread over %d instances, want 3", len(usedInstances))
	}
}

// TestLabeledDepthHookAllocs: publishing a labeled-stream partition's depth
// to a QueueDepth subscriber allocates nothing; the partition queue names
// are bound when the instance is built.
func TestLabeledDepthHookAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{Name: "source", Placement: []int{0}, Seed: func(int, func(*task.Task)) {}})
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1, 2}, CPUWorkers: 1,
		Handler: func(*Ctx, *task.Task) Action { return Action{} },
	})
	rt.ConnectLabeled(src, wf, policy.DDFCFS(2), func(tk *task.Task) uint64 { return tk.ID })
	var names []string
	rt.Hooks.QueueDepth = func(r QueueDepthRecord) {
		if len(names) < 3 {
			names = append(names, r.Queue)
		}
	}
	rt.Start()
	s := src.Instances()[0].out
	for part := range s.parts {
		s.noteDepth(part)
	}
	if got := strings.Join(names, ","); got != "send.p0,send.p1,send.p2" {
		t.Fatalf("partition queue names %q, want send.p0,send.p1,send.p2", got)
	}
	if a := testing.AllocsPerRun(100, func() { s.noteDepth(2) }); a != 0 {
		t.Errorf("%.1f allocations per partition depth change, want 0", a)
	}
}

func TestLabeledStreamWithLazySource(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name:      "source",
		Placement: []int{0},
		SourceCount: func(int) int {
			return 40
		},
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 100, Payload: uint64(i % 2),
				Cost: fixedCost(sim.Millisecond)}
		},
	})
	perInst := map[int]map[uint64]int{}
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			if perInst[ctx.Instance] == nil {
				perInst[ctx.Instance] = map[uint64]int{}
			}
			perInst[ctx.Instance][tk.Payload.(uint64)]++
			return Action{}
		},
	})
	rt.ConnectLabeled(src, wf, policy.DDFCFS(2), func(tk *task.Task) uint64 {
		return tk.Payload.(uint64)
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	for inst, keys := range perInst {
		if len(keys) != 1 {
			t.Fatalf("instance %d saw keys %v, want exactly one key", inst, keys)
		}
	}
}

func TestConcurrentGPUWorkersShareDevice(t *testing.T) {
	// The paper's future work: two GPU worker threads drive concurrent
	// tasks on a concurrency-2 device with a 70% co-run penalty. Aggregate
	// throughput must improve over one worker, by less than 2x.
	run := func(gpuWorkers int) sim.Time {
		k := sim.NewKernel(1)
		c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
		c.Nodes[0].GPU.SetConcurrency(2, 0.7)
		rt := New(c, nil)
		src := rt.AddFilter(FilterSpec{
			Name: "source", Placement: []int{0},
			SourceCount: func(int) int { return 400 },
			SourceMake: func(_, i int) *task.Task {
				return &task.Task{Size: 1000, OutSize: 100, Cost: fixedCost(sim.Millisecond)}
			},
		})
		wf := rt.AddFilter(FilterSpec{
			Name: "worker", Placement: []int{0},
			UseGPU: true, GPUWorkers: gpuWorkers, CPUWorkers: 0, AsyncCopy: true,
			Handler: func(ctx *Ctx, tk *task.Task) Action { return Action{} },
		})
		rt.Connect(src, wf, policy.DDFCFS(8))
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	one := run(1)
	two := run(2)
	if two >= one {
		t.Fatalf("2 GPU workers (%v) should beat 1 (%v) on a concurrency-2 device", two, one)
	}
	if float64(one)/float64(two) > 1.9 {
		t.Fatalf("speedup %.2fx from concurrent kernels exceeds the contention model's bound",
			float64(one)/float64(two))
	}
}

func TestGPUWorkersConsumeManagerCores(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
	rt, _, wf := buildSimple(c, 4, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, UseGPU: true, GPUWorkers: 2, CPUWorkers: -1, AsyncCopy: true},
		policy.DDFCFS(2))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	kinds := wf.Instances()[0].WorkerKinds()
	// 2 cores, both managing GPU workers: no CPU workers remain.
	if len(kinds) != 2 || kinds[0] != hw.GPU || kinds[1] != hw.GPU {
		t.Fatalf("worker kinds = %v, want [GPU GPU]", kinds)
	}
}

func TestTunableGreedyBatchingNeverWins(t *testing.T) {
	// Ablation of DESIGN.md note 3: disabling the affinity bound lets the
	// GPU drain CPU-suited events as batch filler. At unit-test scale the
	// poisoning race is timing-dependent (the full effect shows in the
	// NBIA-scale ablation experiment), but greedy batching must never be
	// meaningfully *better*, and the CPU must never be poisoned with more
	// big events under the bound than without it.
	cpuBigs := 0
	run := func(tun Tunables) sim.Time {
		cpuBigs = 0
		k := sim.NewKernel(3)
		c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
		rt := New(c, nil)
		rt.Tun = tun
		src := rt.AddFilter(FilterSpec{
			Name: "source", Placement: []int{0},
			SourceCount: func(int) int { return 2000 },
			SourceMake: func(_, i int) *task.Task {
				// NBIA-like asymmetry: rare "big" events where the GPU is
				// 300x faster, frequent "small" events where the CPU has a
				// slight edge. A CPU that picks up even a few big events
				// burns hundreds of milliseconds each.
				big := i%6 == 0
				tk := &task.Task{Size: 2000, OutSize: 100, Payload: big,
					Cost: func(_ *task.Task, kd hw.Kind) sim.Time {
						switch {
						case big && kd == hw.GPU:
							return sim.Millisecond
						case big:
							return 300 * sim.Millisecond
						case kd == hw.GPU:
							return 1100 * sim.Microsecond
						default:
							return sim.Millisecond
						}
					}}
				tk.Weight[hw.CPU] = 1
				if big {
					tk.Weight[hw.GPU] = 300
				} else {
					tk.Weight[hw.GPU] = 0.9
				}
				tk.ComputeKeys()
				return tk
			},
		})
		wf := rt.AddFilter(FilterSpec{
			Name: "worker", Placement: []int{0},
			UseGPU: true, CPUWorkers: 1, AsyncCopy: true,
			Handler: func(ctx *Ctx, tk *task.Task) Action {
				if ctx.Kind == hw.CPU && tk.Payload.(bool) {
					cpuBigs++
				}
				return Action{}
			},
		})
		rt.Connect(src, wf, policy.ODDS())
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	withBound := run(Tunables{})
	boundedBigs := cpuBigs
	greedy := run(Tunables{BatchAffinityRatio: -1})
	greedyBigs := cpuBigs
	if greedy < 0.99*withBound {
		t.Fatalf("greedy batching (%v) meaningfully beat affinity-bounded batching (%v)",
			greedy, withBound)
	}
	if boundedBigs > greedyBigs {
		t.Fatalf("affinity bound increased CPU poisoning: %d vs %d big events on the CPU",
			boundedBigs, greedyBigs)
	}
}

func TestTunableDQAAFloorOne(t *testing.T) {
	// Floor 1 must still complete correctly (it is a performance, not a
	// correctness, knob).
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}}, nil)
	rt, _, _ := buildSimple(c, 50, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{0}, CPUWorkers: 2}, policy.ODDS())
	rt.Tun = Tunables{DQAAFloor: 1}
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 50 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestTunableSerialRequesterStillCorrect(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 2}}, nil)
	rt := New(c, nil)
	rt.Tun = Tunables{SerialRequester: true}
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 100 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 50000, Cost: fixedCost(sim.Millisecond)}
		},
	})
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{1}, CPUWorkers: 2,
		Handler: func(ctx *Ctx, tk *task.Task) Action { return Action{} },
	})
	rt.Connect(src, wf, policy.ODDS())
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed = %d", res.Completed)
	}
}

func TestMultipleInputStreamsRoundRobin(t *testing.T) {
	// One worker fed by two independent sources: the Event Scheduler must
	// serve both input queues (round-robin) and the run completes only
	// when both streams are drained.
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt := New(c, nil)
	mkSource := func(name string, tag string, n int) *Filter {
		return rt.AddFilter(FilterSpec{
			Name: name, Placement: []int{0},
			SourceCount: func(int) int { return n },
			SourceMake: func(_, i int) *task.Task {
				return &task.Task{Size: 100, Payload: tag,
					Cost: fixedCost(sim.Millisecond)}
			},
		})
	}
	srcA := mkSource("sourceA", "a", 30)
	srcB := mkSource("sourceB", "b", 30)
	counts := map[string]int{}
	var firstHalf []string
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			tag := tk.Payload.(string)
			counts[tag]++
			if counts["a"]+counts["b"] <= 30 {
				firstHalf = append(firstHalf, tag)
			}
			return Action{}
		},
	})
	rt.Connect(srcA, wf, policy.DDFCFS(2))
	rt.Connect(srcB, wf, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if counts["a"] != 30 || counts["b"] != 30 {
		t.Fatalf("counts = %v", counts)
	}
	if res.Completed != 60 {
		t.Fatalf("completed = %d", res.Completed)
	}
	// Round-robin interleaving: the first half must mix both streams
	// rather than draining one before the other.
	a := 0
	for _, tag := range firstHalf {
		if tag == "a" {
			a++
		}
	}
	if a < 8 || a > 22 {
		t.Fatalf("first 30 events heavily skewed to one stream: %d 'a' of 30", a)
	}
}

func TestInvalidSpecsPanic(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	cases := []func(){
		func() { // no placement
			New(c, nil).AddFilter(FilterSpec{Handler: func(*Ctx, *task.Task) Action { return Action{} }})
		},
		func() { // unknown node
			New(c, nil).AddFilter(FilterSpec{Placement: []int{9},
				Handler: func(*Ctx, *task.Task) Action { return Action{} }})
		},
		func() { // both seed and handler
			New(c, nil).AddFilter(FilterSpec{Placement: []int{0},
				Seed:    func(int, func(*task.Task)) {},
				Handler: func(*Ctx, *task.Task) Action { return Action{} }})
		},
		func() { // lazy source missing make
			New(c, nil).AddFilter(FilterSpec{Placement: []int{0},
				SourceCount: func(int) int { return 1 }})
		},
		func() { // no role at all
			New(c, nil).AddFilter(FilterSpec{Placement: []int{0}})
		},
		func() { // static policy without request size
			rt := New(c, nil)
			a := rt.AddFilter(FilterSpec{Placement: []int{0},
				Seed: func(int, func(*task.Task)) {}})
			b := rt.AddFilter(FilterSpec{Placement: []int{0},
				Handler: func(*Ctx, *task.Task) Action { return Action{} }})
			rt.Connect(a, b, policy.DDFCFS(0))
		},
		func() { // two output streams
			rt := New(c, nil)
			a := rt.AddFilter(FilterSpec{Placement: []int{0},
				Seed: func(int, func(*task.Task)) {}})
			b := rt.AddFilter(FilterSpec{Placement: []int{0},
				Handler: func(*Ctx, *task.Task) Action { return Action{} }})
			rt.Connect(a, b, policy.DDFCFS(1))
			rt.Connect(a, b, policy.DDFCFS(1))
		},
		func() { // labeled stream without label function
			rt := New(c, nil)
			a := rt.AddFilter(FilterSpec{Placement: []int{0},
				Seed: func(int, func(*task.Task)) {}})
			b := rt.AddFilter(FilterSpec{Placement: []int{0},
				Handler: func(*Ctx, *task.Task) Action { return Action{} }})
			rt.ConnectLabeled(a, b, policy.DDFCFS(1), nil)
		},
	}
	for i, bad := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			bad()
		}()
	}
}

func TestResubmitDistributesAcrossSourceInstances(t *testing.T) {
	// Resubmitted work must spread round-robin over the source filter's
	// transparent copies, not pile onto one.
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0, 1},
		SourceCount: func(int) int { return 30 },
		SourceMake: func(inst, i int) *task.Task {
			return &task.Task{Size: 100, Payload: 0, Cost: fixedCost(sim.Millisecond)}
		},
	})
	resubmitSeen := 0
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			if gen := tk.Payload.(int); gen == 0 {
				return Action{Resubmit: []*task.Task{{
					Size: 100, Payload: 1, Cost: fixedCost(sim.Millisecond),
				}}}
			}
			resubmitSeen++
			return Action{}
		},
	})
	rt.Connect(src, wf, policy.DDFCFS(2))
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 {
		t.Fatalf("completed = %d, want 120 (60 seeds + 60 resubmits)", res.Completed)
	}
	if resubmitSeen != 60 {
		t.Fatalf("resubmits processed = %d", resubmitSeen)
	}
	// Both source senders should have forwarded resubmitted work: check
	// via the per-instance push counts implied by queue traffic. We assert
	// indirectly: both worker instances processed resubmitted tasks.
}

func TestRandomGraphConservationProperty(t *testing.T) {
	// Property: for random small pipelines (random node counts, fan-outs
	// and costs), every lineage completes exactly once: Completed equals
	// seeds * (1 + forwards per task) and the run terminates.
	f := func(seed int64) bool {
		rng := randFor(seed)
		k := sim.NewKernel(seed)
		nNodes := 1 + rng.Intn(3)
		specs := make([]hw.NodeSpec, nNodes)
		for i := range specs {
			specs[i] = hw.NodeSpec{CPUCores: 1 + rng.Intn(2), HasGPU: rng.Intn(2) == 0}
		}
		c := hw.NewCluster(k, specs, nil)
		rt := New(c, nil)
		seeds := 10 + rng.Intn(40)
		fan := 1 + rng.Intn(3)
		src := rt.AddFilter(FilterSpec{
			Name: "source", Placement: []int{0},
			SourceCount: func(int) int { return seeds },
			SourceMake: func(_, i int) *task.Task {
				return &task.Task{Size: int64(100 + rng.Intn(5000)),
					Cost: fixedCost(sim.Time(rng.Float64()) * sim.Millisecond)}
			},
		})
		var placement []int
		for i := 0; i < nNodes; i++ {
			placement = append(placement, i)
		}
		stage1 := rt.AddFilter(FilterSpec{
			Name: "stage1", Placement: placement, UseGPU: true, CPUWorkers: -1, AsyncCopy: true,
			Handler: func(ctx *Ctx, tk *task.Task) Action {
				var out []*task.Task
				for j := 0; j < fan; j++ {
					out = append(out, &task.Task{Size: 64,
						Cost: fixedCost(100 * sim.Microsecond)})
				}
				return Action{Forward: out}
			},
		})
		sunk := 0
		sink := rt.AddFilter(FilterSpec{
			Name: "sink", Placement: []int{0}, CPUWorkers: 1,
			Handler: func(ctx *Ctx, tk *task.Task) Action {
				sunk++
				return Action{}
			},
		})
		pols := []policy.StreamPolicy{policy.DDFCFS(2), policy.DDWRR(4), policy.ODDS()}
		rt.Connect(src, stage1, pols[rng.Intn(len(pols))])
		rt.Connect(stage1, sink, pols[rng.Intn(len(pols))])
		res, err := rt.Run()
		if err != nil {
			return false
		}
		return sunk == seeds*fan && res.Completed == int64(seeds+seeds*fan)
	}
	if err := quickCheck(f, 15); err != nil {
		t.Fatal(err)
	}
}

func TestForwardWithoutOutputStreamPanics(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 1 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 10, Cost: fixedCost(sim.Millisecond)}
		},
	})
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			return Action{Forward: []*task.Task{{Size: 1, Cost: fixedCost(0)}}}
		},
	})
	rt.Connect(src, wf, policy.DDFCFS(1))
	if _, err := rt.Run(); err == nil {
		t.Fatal("expected the run to fail: terminal filter forwarded")
	}
}

func TestDrainTimeCoversTrailingTraffic(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}}, nil)
	rt, _, _ := buildSimple(c, 10, fixedCost(sim.Millisecond),
		FilterSpec{Placement: []int{1}, CPUWorkers: 1}, policy.ODDS())
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.DrainTime < res.Makespan {
		t.Fatalf("drain %v < makespan %v", res.DrainTime, res.Makespan)
	}
}

func TestSyncCopySlowerAtRuntimeLevel(t *testing.T) {
	// The end-to-end effect of Section 5.1: same workload, sync vs async
	// GPU copies, everything else equal.
	run := func(async bool) sim.Time {
		k := sim.NewKernel(1)
		c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}}, nil)
		rt := New(c, nil)
		src := rt.AddFilter(FilterSpec{
			Name: "source", Placement: []int{0},
			SourceCount: func(int) int { return 300 },
			SourceMake: func(_, i int) *task.Task {
				// Transfer-heavy: 1 MB in, 1 MB out, 1 ms kernel.
				return &task.Task{Size: 1 << 20, OutSize: 1 << 20,
					Cost: fixedCost(sim.Millisecond)}
			},
		})
		wf := rt.AddFilter(FilterSpec{
			Name: "worker", Placement: []int{0},
			UseGPU: true, CPUWorkers: 0, AsyncCopy: async,
			Handler: func(ctx *Ctx, tk *task.Task) Action { return Action{} },
		})
		rt.Connect(src, wf, policy.DDFCFS(16))
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	async := run(true)
	sync := run(false)
	if async >= sync {
		t.Fatalf("async (%v) should beat sync (%v) on a transfer-heavy workload", async, sync)
	}
	// Algorithm 1 overlaps H2D copies with kernels (D2H stays serial per
	// batch), so the expected gain here is the H2D share of the sync time,
	// discounted by pipeline ramp-up over a short 300-event run.
	if float64(sync)/float64(async) < 1.05 {
		t.Fatalf("async gain only %.2fx, expected > 1.05x", float64(sync)/float64(async))
	}
}

func TestEstimatorWeightsAppliedAtPrep(t *testing.T) {
	// Tasks entering the system without weights get them from the runtime's
	// estimator; tasks with explicit weights keep them.
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	p := estimator.NewProfile()
	var s estimator.Sample
	s.Params = []float64{100}
	s.Times[hw.CPU] = 8
	s.Times[hw.GPU] = 1
	p.Add(s)
	rt := New(c, estimator.New(p, 1))
	var gotWeight float64
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 1 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 10, Params: []float64{100},
				Cost: fixedCost(sim.Millisecond)}
		},
	})
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			gotWeight = tk.Weight[hw.GPU]
			return Action{}
		},
	})
	rt.Connect(src, wf, policy.DDWRR(2))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if gotWeight != 8 {
		t.Fatalf("estimator weight = %v, want 8", gotWeight)
	}
}

func TestRRPushDeliversEverythingBlindly(t *testing.T) {
	// The push-based stream must still complete all work, distributing it
	// round-robin regardless of node speed — the blindness that motivates
	// the demand-driven policies.
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := New(c, nil)
	src := rt.AddFilter(FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 90 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 1000, Cost: fixedCost(sim.Millisecond)}
		},
	})
	perInst := map[int]int{}
	wf := rt.AddFilter(FilterSpec{
		Name: "worker", Placement: []int{0, 1, 2}, CPUWorkers: 1,
		Handler: func(ctx *Ctx, tk *task.Task) Action {
			perInst[ctx.Instance]++
			return Action{}
		},
	})
	rt.Connect(src, wf, policy.RRPush())
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 90 {
		t.Fatalf("completed = %d", res.Completed)
	}
	for i := 0; i < 3; i++ {
		if perInst[i] != 30 {
			t.Fatalf("blind round-robin should give 30 each, got %v", perInst)
		}
	}
}

func TestRRPushSlowerOnImbalancedNodes(t *testing.T) {
	// One fast node (4 cores) and one slow node (1 core): demand-driven
	// DDFCFS lets the fast node pull more work; blind push splits 50/50
	// and the slow node becomes the tail.
	run := func(pol policy.StreamPolicy) sim.Time {
		k := sim.NewKernel(1)
		c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 4}, {CPUCores: 1}}, nil)
		rt := New(c, nil)
		src := rt.AddFilter(FilterSpec{
			Name: "source", Placement: []int{0},
			SourceCount: func(int) int { return 500 },
			SourceMake: func(_, i int) *task.Task {
				return &task.Task{Size: 1000, Cost: fixedCost(sim.Millisecond)}
			},
		})
		wf := rt.AddFilter(FilterSpec{
			Name: "worker", Placement: []int{0, 1}, CPUWorkers: -1,
			Handler: func(ctx *Ctx, tk *task.Task) Action { return Action{} },
		})
		rt.Connect(src, wf, pol)
		res, err := rt.Run()
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	pull := run(policy.DDFCFS(2))
	push := run(policy.RRPush())
	// Ideal pull: 500 tasks over 5 cores = 100 ms; blind push: 250 tasks
	// on the single-core node = 250 ms.
	if push < sim.Time(1.8)*pull {
		t.Fatalf("blind push (%v) should be much slower than demand-driven pull (%v)", push, pull)
	}
}
