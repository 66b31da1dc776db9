// Quickstart: a minimal replicated-dataflow application on the simulated
// heterogeneous runtime.
//
// A source filter produces 1,000 work items whose GPU affinity varies with
// the item's size; a worker filter replicated on two CPU+GPU nodes
// processes them under the ODDS stream policy. The example prints the
// virtual makespan, the speedup over a single CPU core, and where the work
// ran.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

func main() {
	// A deterministic virtual-time kernel and a 2-node CPU+GPU cluster.
	k := sim.NewKernel(42)
	cluster := hw.HomogeneousCluster(k, 2)
	rt := core.New(cluster, nil)

	// Work items: odd items are small (GPU is no better than a CPU core),
	// even items are large (GPU is 20x faster). The scheduling weights
	// would normally come from the kNN performance estimator; here we set
	// them directly.
	const items = 1000
	// One cost function prices every item: it reads the item's size class
	// from the task it is handed.
	cost := func(t *task.Task, kind hw.Kind) sim.Time {
		big := t.Payload.(bool)
		switch {
		case big && kind == hw.GPU:
			return 500 * sim.Microsecond
		case big:
			return 10 * sim.Millisecond
		default:
			return sim.Millisecond
		}
	}
	makeItem := func(i int) *task.Task {
		big := i%2 == 0
		t := &task.Task{Size: 4096, OutSize: 128, Payload: big, Cost: cost}
		t.Weight[hw.CPU] = 1
		if big {
			t.Weight[hw.GPU] = 20
		} else {
			t.Weight[hw.GPU] = 1
		}
		t.ComputeKeys()
		return t
	}

	source := rt.AddFilter(core.FilterSpec{
		Name:        "source",
		Placement:   []int{0},
		SourceCount: func(int) int { return items },
		SourceMake:  func(_, i int) *task.Task { return makeItem(i) },
	})

	processed := map[hw.Kind]int{}
	worker := rt.AddFilter(core.FilterSpec{
		Name:       "worker",
		Placement:  []int{0, 1},
		UseGPU:     true,
		CPUWorkers: 1,
		AsyncCopy:  true,
		Handler: func(ctx *core.Ctx, t *task.Task) core.Action {
			processed[ctx.Kind]++
			return core.Action{} // lineage complete
		},
	})
	rt.Connect(source, worker, policy.ODDS())

	res, err := rt.Run()
	if err != nil {
		panic(err)
	}

	// Single-CPU-core reference for the same work.
	var oneCore sim.Time
	for i := 0; i < items; i++ {
		t := makeItem(i)
		oneCore += t.Cost(t, hw.CPU)
	}

	fmt.Printf("items processed:   %d (GPU: %d, CPU: %d)\n",
		res.Completed, processed[hw.GPU], processed[hw.CPU])
	fmt.Printf("virtual makespan:  %.3f s\n", float64(res.Makespan))
	fmt.Printf("1-core reference:  %.3f s\n", float64(oneCore))
	fmt.Printf("speedup:           %.1fx\n", float64(oneCore)/float64(res.Makespan))
}
