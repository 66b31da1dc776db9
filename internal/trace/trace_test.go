package trace

import (
	"bytes"
	"encoding/csv"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// runTraced executes a small pipeline with a collector attached.
func runTraced(t *testing.T) (*Collector, *hw.Cluster, sim.Time) {
	t.Helper()
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}}, nil)
	rt := core.New(c, nil)
	col := &Collector{}
	col.Attach(rt)
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 20 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 100, Cost: func(*task.Task, hw.Kind) sim.Time { return sim.Millisecond }}
		},
	})
	wf := rt.AddFilter(core.FilterSpec{
		Name: "worker", Placement: []int{0}, CPUWorkers: 2,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, wf, policy.ODDS())
	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	return col, c, res.Makespan
}

func TestCollectorGathersAllEvents(t *testing.T) {
	col, _, _ := runTraced(t)
	if len(col.Procs) != 20 {
		t.Fatalf("procs = %d, want 20", len(col.Procs))
	}
}

func TestCollectorChainsExistingHooks(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt := core.New(c, nil)
	direct := 0
	rt.Hooks.Process = func(core.ProcRecord) { direct++ }
	col := &Collector{}
	col.Attach(rt)
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 5 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 10, Cost: func(*task.Task, hw.Kind) sim.Time { return sim.Millisecond }}
		},
	})
	wf := rt.AddFilter(core.FilterSpec{
		Name: "w", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, wf, policy.DDFCFS(2))
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if direct != 5 || len(col.Procs) != 5 {
		t.Fatalf("chained hooks: direct=%d collected=%d", direct, len(col.Procs))
	}
}

func TestWriteProcsCSV(t *testing.T) {
	col, _, _ := runTraced(t)
	var buf bytes.Buffer
	if err := col.WriteProcsCSV(&buf); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 21 {
		t.Fatalf("rows = %d, want header + 20", len(rows))
	}
	if rows[0][0] != "task_id" || rows[1][3] != "CPU" {
		t.Fatalf("unexpected CSV content: %v", rows[:2])
	}
}

func TestGanttShape(t *testing.T) {
	_, c, makespan := runTraced(t)
	out := Gantt(c.Devices(), makespan, 40)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 2 {
		t.Fatalf("gantt rows = %d, want 2 devices:\n%s", len(lines), out)
	}
	for _, l := range lines {
		if !strings.Contains(l, "|") || len(l) < 40 {
			t.Fatalf("malformed row %q", l)
		}
	}
	// Two workers splitting 20 x 1ms of work: both rows mostly busy.
	if strings.Count(out, "#") < 40 {
		t.Fatalf("expected mostly-busy chart:\n%s", out)
	}
}

func TestGanttDegenerate(t *testing.T) {
	if Gantt(nil, 0, 10) != "" {
		t.Fatal("degenerate gantt should be empty")
	}
}

func TestSummary(t *testing.T) {
	col, _, _ := runTraced(t)
	out := col.Summary()
	if !strings.Contains(out, "worker") || !strings.Contains(out, "CPU") ||
		!strings.Contains(out, "20") {
		t.Fatalf("summary missing fields:\n%s", out)
	}
}

func TestGanttPartialCells(t *testing.T) {
	k := sim.NewKernel(1)
	d := hw.NewDevice(k, hw.CPU, 0)
	k.SpawnStep("u", func(e *sim.Env) sim.Cont {
		return sim.After(0.9, func(e *sim.Env) sim.Cont { // idle most of cell 0
			return d.RunThen(e, 0.2, sim.DoneStep)
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	out := Gantt([]*hw.Device{d}, 2, 2) // cells of 1s: busy 0.1s and 0.1s
	if !strings.Contains(out, "+") {
		t.Fatalf("expected partial-busy '+' cells:\n%s", out)
	}
}

func TestCollectorTargets(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}, {CPUCores: 1}}, nil)
	rt := core.New(c, nil)
	col := &Collector{}
	col.Attach(rt)
	src := rt.AddFilter(core.FilterSpec{
		Name: "source", Placement: []int{0},
		SourceCount: func(int) int { return 200 },
		SourceMake: func(_, i int) *task.Task {
			return &task.Task{Size: 300000, Cost: func(*task.Task, hw.Kind) sim.Time { return 100 * sim.Microsecond }}
		},
	})
	wf := rt.AddFilter(core.FilterSpec{
		Name: "worker", Placement: []int{1}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, wf, policy.ODDS())
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	// Remote 300 KB transfers vs 0.1 ms processing: DQAA must adjust the
	// target at least once, and the collector must capture it.
	if len(col.Targets) == 0 {
		t.Fatal("no DQAA target changes collected")
	}
}
