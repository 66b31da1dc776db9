package span

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// pipe describes one test pipeline shape.
type pipe struct {
	name    string
	seed    int64
	gpu     bool // GPU sink worker
	async   bool // async transfer pipeline
	lazy    bool // lazy (demand-driven) source instead of eager seeding
	hops    int  // intermediate CPU stages between source and sink
	resub   int  // tasks the sink resubmits once (NBIA-style recalculation)
	count   int
	policy  func() policy.StreamPolicy
	workers int
}

var pipes = []pipe{
	{name: "cpu-odds-lazy", seed: 1, lazy: true, count: 120, policy: policy.ODDS, workers: 1},
	{name: "cpu-ddfcfs-eager", seed: 2, count: 150,
		policy: func() policy.StreamPolicy { return policy.DDFCFS(4) }, workers: 2},
	{name: "gpu-sync", seed: 3, gpu: true, count: 100, policy: policy.ODDS},
	{name: "gpu-async", seed: 4, gpu: true, async: true, lazy: true, count: 100,
		policy: policy.ODDS},
	{name: "multihop", seed: 5, hops: 2, lazy: true, count: 90, policy: policy.ODDS, workers: 1},
	{name: "resubmit", seed: 6, lazy: true, count: 80, resub: 10, policy: policy.ODDS, workers: 1},
	{name: "push", seed: 7, count: 60,
		policy: policy.RRPush, workers: 1},
}

// runPipe executes the pipeline with a collector attached and returns the
// built attribution plus the run result.
func runPipe(t testing.TB, p pipe) (*Attribution, core.Result) {
	t.Helper()
	k := sim.NewKernel(p.seed)
	specs := []hw.NodeSpec{{CPUCores: 2}}
	for i := 0; i <= p.hops; i++ {
		specs = append(specs, hw.NodeSpec{CPUCores: 2, HasGPU: p.gpu})
	}
	c := hw.NewCluster(k, specs, nil)
	rt := core.New(c, nil)
	col := NewCollector()
	col.Attach(rt)

	mk := func(i int) *task.Task {
		cost := sim.Time(20+i%11) * sim.Microsecond
		return &task.Task{
			Size: 64 << 10, OutSize: 1 << 10,
			Cost: func(*task.Task, hw.Kind) sim.Time { return cost },
		}
	}
	spec := core.FilterSpec{Name: "source", Placement: []int{0}}
	if p.lazy {
		spec.SourceCount = func(int) int { return p.count }
		spec.SourceMake = func(_, i int) *task.Task { return mk(i) }
	} else {
		spec.Seed = func(_ int, emit func(*task.Task)) {
			for i := 0; i < p.count; i++ {
				emit(mk(i))
			}
		}
	}
	prev := rt.AddFilter(spec)
	for i := 0; i < p.hops; i++ {
		mid := rt.AddFilter(core.FilterSpec{
			Name: "mid" + string(rune('0'+i)), Placement: []int{1 + i}, CPUWorkers: 1,
			Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
				return core.Action{Forward: []*task.Task{{
					Size: tk.Size / 2, OutSize: tk.OutSize,
					Cost: tk.Cost,
				}}}
			},
		})
		rt.Connect(prev, mid, p.policy())
		prev = mid
	}
	resubLeft := p.resub
	sink := rt.AddFilter(core.FilterSpec{
		Name: "sink", Placement: []int{1 + p.hops}, CPUWorkers: p.workers,
		UseGPU: p.gpu, AsyncCopy: p.async,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
			if resubLeft > 0 {
				resubLeft--
				return core.Action{Resubmit: []*task.Task{{
					Size: tk.Size, OutSize: tk.OutSize, Cost: tk.Cost,
				}}}
			}
			return core.Action{}
		},
	})
	rt.Connect(prev, sink, p.policy())
	res, err := rt.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", p.name, err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("%s: validate: %v", p.name, err)
	}
	a, err := col.Build(res.Makespan)
	if err != nil {
		t.Fatalf("%s: build: %v", p.name, err)
	}
	return a, res
}

// checkConservation asserts the core property: the critical path tiles
// [0, makespan] exactly — segments abut with no gaps or overlaps, the path
// starts at the epoch and ends at the instant that set the makespan.
func checkConservation(t *testing.T, name string, a *Attribution) {
	t.Helper()
	if len(a.Path) == 0 {
		t.Fatalf("%s: empty critical path", name)
	}
	if got := a.Path[0].Start; got != 0 {
		t.Errorf("%s: path starts at %v, want 0", name, got)
	}
	if got := a.PathEnd(); got != a.Makespan {
		t.Errorf("%s: path ends at %v, makespan %v", name, got, a.Makespan)
	}
	for i, s := range a.Path {
		if s.End <= s.Start {
			t.Errorf("%s: segment %d empty or reversed: %+v", name, i, s)
		}
		if i > 0 && s.Start != a.Path[i-1].End {
			t.Errorf("%s: gap/overlap between segments %d and %d: %v -> %v",
				name, i-1, i, a.Path[i-1].End, s.Start)
		}
	}
	// The span kinds partition the path: summing the per-kind breakdown
	// reconstructs the path length (up to float summation order).
	var sum sim.Time
	for _, s := range a.ByKind() {
		sum += s.Dur
	}
	if d := float64(sum - a.PathLen()); d > 1e-9*float64(a.PathLen()) || d < -1e-9*float64(a.PathLen()) {
		t.Errorf("%s: kind breakdown sums to %v, path length %v", name, sum, a.PathLen())
	}
	// Hops partition the path too.
	if n := len(a.Hops); n > 0 {
		if a.Hops[0].Start != 0 || a.Hops[n-1].End != a.PathEnd() {
			t.Errorf("%s: hops span [%v,%v], path [0,%v]",
				name, a.Hops[0].Start, a.Hops[n-1].End, a.PathEnd())
		}
		for i := 1; i < n; i++ {
			if a.Hops[i].Start != a.Hops[i-1].End {
				t.Errorf("%s: hop %d not contiguous", name, i)
			}
			if a.Hops[i].Parent != a.Hops[i-1].Task {
				t.Errorf("%s: hop %d parent %d, previous task %d",
					name, i, a.Hops[i].Parent, a.Hops[i-1].Task)
			}
		}
		if a.Hops[n-1].Task != a.FinalTask {
			t.Errorf("%s: last hop task %d, final task %d", name, a.Hops[n-1].Task, a.FinalTask)
		}
	}
}

func TestCriticalPathConservation(t *testing.T) {
	for _, p := range pipes {
		p := p
		t.Run(p.name, func(t *testing.T) {
			a, res := runPipe(t, p)
			checkConservation(t, p.name, a)
			// Congestion-free or congested, single-path or multi-hop: the
			// path length equals the makespan exactly (same floats).
			if a.PathLen() != res.Makespan {
				t.Errorf("critical path length %v != makespan %v", a.PathLen(), res.Makespan)
			}
			if a.Coverage() != 100 {
				t.Errorf("coverage %v, want exactly 100", a.Coverage())
			}
		})
	}
}

func TestGPUPathHasPipelineKinds(t *testing.T) {
	a, _ := runPipe(t, pipes[3]) // gpu-async
	kinds := map[string]bool{}
	for _, s := range a.ByKind() {
		kinds[s.Key] = true
	}
	for _, want := range []string{"kernel", "h2d", "d2h"} {
		if !kinds[want] {
			t.Errorf("GPU run missing %q on critical path (have %v)", want, kinds)
		}
	}
	if kinds["service"] {
		t.Error("GPU service window should decompose into pipeline spans, not service")
	}
}

func TestResubmitPathHasHandoff(t *testing.T) {
	a, _ := runPipe(t, pipe{name: "resub-all", seed: 11, lazy: true, count: 40, resub: 40,
		policy: policy.ODDS, workers: 1})
	// Every first-generation task resubmits once, so the final lineage is a
	// resubmission and its pre-emit gap is a handoff (or the recalculated
	// buffer waited in queue — then the handoff span may be empty). The
	// lineage chain must still conserve time.
	checkConservation(t, "resub-all", a)
	if len(a.Hops) < 2 {
		t.Fatalf("resubmission run should chain >= 2 hops, got %d", len(a.Hops))
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, p := range pipes[:3] {
		a, _ := runPipe(t, p)
		raw, err := a.Encode()
		if err != nil {
			t.Fatalf("%s: encode: %v", p.name, err)
		}
		d, err := Decode(raw)
		if err != nil {
			t.Fatalf("%s: decode rejected own artifact: %v", p.name, err)
		}
		if d.FinalTask != a.FinalTask || len(d.Path) != len(a.Path) {
			t.Fatalf("%s: round-trip mismatch", p.name)
		}
		// Re-encoding the decoded doc reproduces the bytes.
		again, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(raw, again) {
			t.Fatalf("%s: encode is not deterministic", p.name)
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	p := pipes[3] // gpu-async: the most concurrency-heavy shape
	a1, _ := runPipe(t, p)
	a2, _ := runPipe(t, p)
	r1, err1 := a1.Encode()
	r2, err2 := a2.Encode()
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(r1, r2) {
		t.Fatal("same-seed runs produced different explain artifacts")
	}
	if a1.Summary() != a2.Summary() {
		t.Fatal("same-seed runs produced different summaries")
	}
}

func TestSummaryShape(t *testing.T) {
	a, _ := runPipe(t, pipes[3])
	s := a.Summary()
	for _, want := range []string{
		"# Makespan attribution",
		"Critical path by span kind",
		"Critical path by device class",
		"Critical path by filter",
		"Top 5 bottleneck buffers",
		"coverage 100.0%",
	} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q", want)
		}
	}
	if n := len(a.Bottlenecks(topK)); n == 0 || n > topK {
		t.Errorf("bottleneck table has %d rows", n)
	}
	if b := a.Breakdown(); !strings.Contains(b, "coverage 100.0%") {
		t.Errorf("breakdown line malformed: %q", b)
	}
}

func TestDecodeRejectsCorruption(t *testing.T) {
	a, _ := runPipe(t, pipes[0])
	raw, err := a.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mod  func([]byte) []byte
	}{
		{"unknown-kind", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"kind": "service"`), []byte(`"kind": "svc"`), 1)
		}},
		{"unknown-field", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"makespan_s"`), []byte(`"makespan_x"`), 1)
		}},
		{"trailing-garbage", func(b []byte) []byte {
			return append(b, []byte("{}")...)
		}},
		{"broken-contiguity", func(b []byte) []byte {
			return bytes.Replace(b, []byte(`"start_s": 0,`), []byte(`"start_s": 0.5,`), 1)
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			mutated := c.mod(append([]byte(nil), raw...))
			if bytes.Equal(mutated, raw) {
				t.Fatal("mutation did not apply")
			}
			if _, err := Decode(mutated); err == nil {
				t.Fatal("decoder accepted corrupted artifact")
			}
		})
	}
}

func TestBuildNoProcessed(t *testing.T) {
	c := NewCollector()
	if _, err := c.Build(1); err == nil {
		t.Fatal("Build on an empty collector should fail")
	}
}
