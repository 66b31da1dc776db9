// Labeledreduce: stateful reduction with labeled streams.
//
// Anthill's filter-labeled stream model routes every data buffer to the
// transparent copy that owns its label, so per-label state needs no
// cross-node coordination. This example computes per-category statistics
// of a synthetic event feed on a 3-node cluster: a mapper filter extracts
// the category, a labeled stream partitions categories across reducer
// instances, and each reducer keeps purely local state.
//
// Run with:
//
//	go run ./examples/labeledreduce
package main

import (
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// event is one record of the feed.
type event struct {
	Category uint64
	Value    float64
}

func main() {
	const events = 3000
	const categories = 12

	k := sim.NewKernel(7)
	cluster := hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2},
	}, nil)
	rt := core.New(cluster, nil)

	source := rt.AddFilter(core.FilterSpec{
		Name:        "feed",
		Placement:   []int{0},
		SourceCount: func(int) int { return events },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{
				Size:    256,
				Payload: event{Category: uint64(i*7) % categories, Value: float64(i % 100)},
				Cost:    func(*task.Task, hw.Kind) sim.Time { return 50 * sim.Microsecond },
			}
		},
	})

	mapper := rt.AddFilter(core.FilterSpec{
		Name: "map", Placement: []int{0, 1, 2}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, t *task.Task) core.Action {
			// Pass through; a real mapper would parse/enrich here.
			ev := t.Payload.(event)
			return core.Action{Forward: []*task.Task{{
				Size:    64,
				Payload: ev,
				Cost:    func(*task.Task, hw.Kind) sim.Time { return 20 * sim.Microsecond },
			}}}
		},
	})

	// Per-(reducer instance) local state; no locks needed because each
	// category is pinned to exactly one instance by the labeled stream.
	type stats struct {
		n        int
		sum      float64
		instance int
	}
	perCategory := map[uint64]*stats{}
	reducer := rt.AddFilter(core.FilterSpec{
		Name: "reduce", Placement: []int{0, 1, 2}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, t *task.Task) core.Action {
			ev := t.Payload.(event)
			st := perCategory[ev.Category]
			if st == nil {
				st = &stats{instance: ctx.Instance}
				perCategory[ev.Category] = st
			} else if st.instance != ctx.Instance {
				panic("label routing violated: category seen on two instances")
			}
			st.n++
			st.sum += ev.Value
			return core.Action{}
		},
	})

	rt.Connect(source, mapper, policy.ODDS())
	rt.ConnectLabeled(mapper, reducer, policy.DDFCFS(4), func(t *task.Task) uint64 {
		return t.Payload.(event).Category
	})

	res, err := rt.Run()
	if err != nil {
		panic(err)
	}

	cats := make([]uint64, 0, len(perCategory))
	for c := range perCategory {
		cats = append(cats, c)
	}
	sort.Slice(cats, func(i, j int) bool { return cats[i] < cats[j] })
	fmt.Printf("%-10s %-10s %8s %10s\n", "category", "instance", "events", "mean")
	for _, c := range cats {
		st := perCategory[c]
		fmt.Printf("%-10d reduce/%-3d %8d %10.2f\n", c, st.instance, st.n, st.sum/float64(st.n))
	}
	fmt.Printf("\nprocessed %d events in %.3f s (virtual); every category stayed on one instance\n",
		events, float64(res.Makespan))
}
