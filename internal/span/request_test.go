package span

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xfer"
)

// openPipe describes one open-system test shape: Poisson arrivals at an
// admission-controlled gateway, optionally one forwarding hop before the
// heterogeneous serve stage.
type openPipe struct {
	name       string
	seed       int64
	rate       float64 // requests per second of virtual time
	n          int     // offered requests
	queueLimit int
	hop        bool // insert a forwarding middle filter
	gpu        bool
	policy     func() policy.StreamPolicy
}

var openPipes = []openPipe{
	{name: "light-odds", seed: 1, rate: 500, n: 60, queueLimit: 32, policy: policy.ODDS},
	{name: "overload-shed", seed: 2, rate: 4000, n: 200, queueLimit: 4,
		policy: func() policy.StreamPolicy { return policy.DDFCFS(4) }},
	{name: "forward-hop", seed: 3, rate: 800, n: 80, queueLimit: 32, hop: true, policy: policy.ODDS},
	{name: "gpu-pool", seed: 4, rate: 1500, n: 120, queueLimit: 16, gpu: true, policy: policy.ODDS},
}

// runOpenPipe drives an open-system run with a collector attached and
// returns the collector, the arrival stats, and the run result.
func runOpenPipe(t testing.TB, p openPipe) (*Collector, *arrival.Stats, core.Result) {
	t.Helper()
	k := sim.NewKernel(p.seed)
	c := hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2},
		{CPUCores: 2, HasGPU: p.gpu},
	}, nil)
	rt := core.New(c, nil)
	col := NewCollector()
	col.Attach(rt)

	gw := rt.AddFilter(core.FilterSpec{
		Name: "gateway", Placement: []int{0},
		Open: true, QueueLimit: p.queueLimit,
	})
	prev := gw
	if p.hop {
		mid := rt.AddFilter(core.FilterSpec{
			Name: "mid", Placement: []int{0}, CPUWorkers: 1,
			Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
				return core.Action{Forward: []*task.Task{{
					Size: tk.Size / 2, OutSize: tk.OutSize, Cost: tk.Cost,
				}}}
			},
		})
		rt.Connect(prev, mid, p.policy())
		prev = mid
	}
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve", Placement: []int{0, 1},
		CPUWorkers: 1, UseGPU: p.gpu, GPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(prev, srv, p.policy())

	sched := &arrival.Schedule{Procs: []arrival.Proc{{
		Kind: arrival.Poisson, Rate: p.rate, N: p.n,
	}}}
	st := arrival.Drive(rt, gw, sched.Times(p.seed), func(int) *task.Task {
		return &task.Task{
			Size: 8 << 10, OutSize: 1 << 10,
			Cost: func(kw hw.Kind) sim.Time {
				if kw == hw.GPU {
					return 300 * sim.Microsecond
				}
				return sim.Millisecond
			},
		}
	})
	res, err := rt.Run()
	if err != nil {
		t.Fatalf("%s: run: %v", p.name, err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatalf("%s: validate: %v", p.name, err)
	}
	return col, st, res
}

// checkRequestConservation asserts the per-request tiling property with
// exact float equality: the path's first segment starts at the admission
// instant (Origin), the last ends at the request's completion (Makespan),
// and segments abut with no gaps or overlaps.
func checkRequestConservation(t *testing.T, name string, root uint64, a *Attribution) {
	t.Helper()
	if len(a.Path) == 0 {
		t.Fatalf("%s: request %d: empty path", name, root)
	}
	if a.Path[0].Start != a.Origin {
		t.Errorf("%s: request %d: path starts at %v, origin %v",
			name, root, a.Path[0].Start, a.Origin)
	}
	if a.PathEnd() != a.Makespan {
		t.Errorf("%s: request %d: path ends at %v, completion %v",
			name, root, a.PathEnd(), a.Makespan)
	}
	for i, s := range a.Path {
		if s.End <= s.Start {
			t.Errorf("%s: request %d: segment %d empty or reversed: %+v", name, root, i, s)
		}
		if i > 0 && s.Start != a.Path[i-1].End {
			t.Errorf("%s: request %d: gap/overlap between segments %d and %d: %v -> %v",
				name, root, i-1, i, a.Path[i-1].End, s.Start)
		}
	}
	// Exact endpoints force exact coverage.
	if a.Coverage() != 100 {
		t.Errorf("%s: request %d: coverage %v, want exactly 100", name, root, a.Coverage())
	}
	// The per-kind breakdown reconstructs the window length (up to float
	// summation order), and the window is the request's own, not the run's.
	var sum sim.Time
	for _, s := range a.ByKind() {
		sum += s.Dur
	}
	win := a.Makespan - a.Origin
	if d := float64(sum - win); d > 1e-9*float64(win) || d < -1e-9*float64(win) {
		t.Errorf("%s: request %d: kind breakdown sums to %v, window %v", name, root, sum, win)
	}
	// The chain starts at the request root itself.
	if len(a.Hops) == 0 || a.Hops[0].Task != root {
		t.Errorf("%s: request %d: lineage chain does not start at the root (hops %v)",
			name, root, a.Hops)
	}
}

func TestRequestConservation(t *testing.T) {
	for _, p := range openPipes {
		p := p
		t.Run(p.name, func(t *testing.T) {
			col, st, res := runOpenPipe(t, p)
			if len(col.inject) != st.Accepted {
				t.Fatalf("collector saw %d admitted roots, arrival stats say %d",
					len(col.inject), st.Accepted)
			}
			if p.name == "overload-shed" && st.Rejected == 0 {
				t.Fatal("overload shape shed nothing; shedding path untested")
			}
			built := 0
			for root, origin := range col.inject {
				a, err := col.BuildRequest(root)
				if err != nil {
					t.Fatalf("request %d: %v", root, err)
				}
				if a.Origin != origin {
					t.Errorf("request %d: origin %v, admit hook recorded %v", root, a.Origin, origin)
				}
				if a.Makespan > res.Makespan {
					t.Errorf("request %d: completes at %v, after run makespan %v",
						root, a.Makespan, res.Makespan)
				}
				checkRequestConservation(t, p.name, root, a)
				built++
			}
			if built != st.Accepted {
				t.Fatalf("built %d attributions, %d admitted", built, st.Accepted)
			}
		})
	}
}

// TestRequestWindowIsOwn pins the bug the per-request roots fix: a batch
// Build over an open run tiles [0, makespan] and charges pre-arrival idle
// time to the final lineage, while BuildRequest tiles each request's own
// [inject, complete] window. For any request admitted after the epoch the
// two windows must differ on the left edge.
func TestRequestWindowIsOwn(t *testing.T) {
	p := openPipes[0]
	col, _, res := runOpenPipe(t, p)
	batch, err := col.Build(res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if batch.Origin != 0 {
		t.Fatalf("batch Build origin %v, want 0", batch.Origin)
	}
	if batch.Path[0].Start != 0 {
		t.Fatalf("batch path starts at %v, want epoch", batch.Path[0].Start)
	}
	late := 0
	for root := range col.inject {
		a, err := col.BuildRequest(root)
		if err != nil {
			t.Fatal(err)
		}
		if a.Origin > 0 {
			late++
			if a.Path[0].Start == 0 {
				t.Fatalf("request %d admitted at %v but its path starts at the epoch",
					root, a.Origin)
			}
		}
		// Per-request lineage counts only the request's own buffers.
		if a.Buffers > batch.Buffers {
			t.Fatalf("request %d counts %d buffers, run tracked %d",
				root, a.Buffers, batch.Buffers)
		}
	}
	if late == 0 {
		t.Fatal("every request arrived at the epoch; left-edge property untested")
	}
}

func TestBuildRequestRejectsNonRoots(t *testing.T) {
	col, _, _ := runOpenPipe(t, openPipes[0])
	if _, err := col.BuildRequest(0); err == nil {
		t.Fatal("task 0 (the rejected-arrival sentinel) accepted as a request root")
	}
	if _, err := col.BuildRequest(1 << 60); err == nil {
		t.Fatal("unknown task accepted as a request root")
	}
}

// scanKids rebuilds the children index from scratch by scanning every
// collected buffer's Parent, dropping parents whose lists emptied.
func scanKids(c *Collector) map[uint64][]uint64 {
	kids := make(map[uint64][]uint64)
	for _, id := range c.order {
		if b := c.bufs[id]; b != nil && b.Parent != 0 { // nil: forgotten
			p := b.Parent
			kids[p] = append(kids[p], id)
		}
	}
	return kids
}

// checkKids requires the collector's incremental children index to hold
// exactly the children a full scan finds, per parent.
func checkKids(t *testing.T, name string, c *Collector) {
	t.Helper()
	want := scanKids(c)
	got := make(map[uint64][]uint64)
	for p, ids := range c.kids {
		if len(ids) > 0 {
			got[p] = append([]uint64(nil), ids...)
			slices.Sort(got[p])
		}
	}
	for p := range want {
		slices.Sort(want[p])
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: children index %v, full scan %v", name, got, want)
	}
}

func TestChildrenIndexMatchesScan(t *testing.T) {
	for _, p := range openPipes {
		col, _, _ := runOpenPipe(t, p)
		checkKids(t, p.name, col)
	}
}

// TestForgetRetiresLineages forgets a random half of each open pipe's
// requests, then the rest. Forgetting must leave every kept request's
// attribution byte-identical and its children index exact, make the
// forgotten roots unbuildable, ignore later records for forgotten IDs of
// every kind, and end with no buffers, no first-seen order and one
// forgotten-ID range.
func TestForgetRetiresLineages(t *testing.T) {
	for _, p := range openPipes {
		col, _, res := runOpenPipe(t, p)
		var roots []uint64
		for id := range col.inject {
			roots = append(roots, id)
		}
		slices.Sort(roots)
		want := make(map[uint64][]byte)
		for _, id := range roots {
			if a, err := col.BuildRequest(id); err == nil {
				if want[id], err = a.Encode(); err != nil {
					t.Fatal(err)
				}
			}
		}
		rng := rand.New(rand.NewSource(p.seed))
		rng.Shuffle(len(roots), func(i, j int) { roots[i], roots[j] = roots[j], roots[i] })
		half := len(roots) / 2
		for _, id := range roots[:half] {
			col.Forget(id)
		}
		checkKids(t, p.name, col)
		kept := 0
		for _, id := range roots[half:] {
			a, err := col.BuildRequest(id)
			if err != nil {
				t.Fatalf("%s: kept request %d: %v", p.name, id, err)
			}
			got, err := a.Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[id]) {
				t.Errorf("%s: kept request %d attribution changed by forgetting others", p.name, id)
			}
			kept += a.Buffers
		}
		if col.Buffers() != kept {
			t.Errorf("%s: %d buffers after forgetting, kept lineages hold %d", p.name, col.Buffers(), kept)
		}
		if a, err := col.Build(res.Makespan); err != nil || a.Buffers != kept {
			t.Errorf("%s: batch Build over the kept buffers: %v, err %v", p.name, a, err)
		}

		// Late records of every kind for forgotten IDs change nothing.
		rt := &core.Runtime{}
		col.Attach(rt)
		for _, id := range roots[:half] {
			rt.Hooks.Admit(core.AdmitRecord{Filter: "gateway", TaskID: id, At: 1, Accepted: true})
			rt.Hooks.Emit(core.EmitRecord{Stream: "gateway->serve", Filter: "gateway", TaskID: id, At: 1})
			rt.Hooks.Send(core.SendRecord{Stream: "gateway->serve", TaskID: id, At: 1})
			rt.Hooks.Deliver(core.DeliverRecord{Stream: "gateway->serve", Filter: "serve", TaskID: id, At: 1})
			rt.Hooks.Span(core.SpanRecord{Filter: "serve", TaskID: id, Start: 1, End: 2})
			rt.Hooks.Process(core.ProcRecord{TaskID: id, Filter: "serve", Start: 1, End: 2})
			if _, ok := col.Injected(id); ok {
				t.Fatalf("%s: a late Admit record brought back forgotten request %d", p.name, id)
			}
			if _, err := col.BuildRequest(id); err == nil {
				t.Fatalf("%s: forgotten request %d still builds", p.name, id)
			}
		}
		if col.Buffers() != kept {
			t.Errorf("%s: late records for forgotten IDs brought back %d buffers", p.name, col.Buffers()-kept)
		}

		for _, id := range roots[half:] {
			col.Forget(id)
		}
		if col.Buffers() != 0 || len(col.order) != 0 || len(col.kids) != 0 || len(col.inject) != 0 {
			t.Errorf("%s: after forgetting every request: %d buffers, %d ordered IDs, %d parents, %d roots",
				p.name, col.Buffers(), len(col.order), len(col.kids), len(col.inject))
		}
		if len(col.gone) != 1 {
			t.Errorf("%s: every task ID forgotten, yet %d forgotten ranges: %v", p.name, len(col.gone), col.gone)
		}

		// New requests reuse the forgotten buffer records and must build
		// exactly as on a fresh collector.
		fresh := NewCollector()
		frt := &core.Runtime{}
		fresh.Attach(frt)
		next := col.gone[0].hi + 1
		for i := uint64(0); i < 4; i++ {
			replayRequest(rt, next+2*i)
			replayRequest(frt, next+2*i)
		}
		for i := uint64(0); i < 4; i++ {
			got, err1 := col.BuildRequest(next + 2*i)
			want, err2 := fresh.BuildRequest(next + 2*i)
			if err1 != nil || err2 != nil {
				t.Fatalf("%s: request after reuse: %v, fresh: %v", p.name, err1, err2)
			}
			gb, _ := got.Encode()
			wb, _ := want.Encode()
			if !bytes.Equal(gb, wb) {
				t.Errorf("%s: request on reused buffer records\n%s\nwant\n%s", p.name, gb, wb)
			}
		}
	}
}

// replayRequest feeds one two-hop request through rt's hooks: root is
// admitted and processed by "mid", which forwards root+1 to a GPU worker
// of "serve" whose service records one transfer-pipeline span.
func replayRequest(rt *core.Runtime, root uint64) {
	child := root + 1
	rt.Hooks.Admit(core.AdmitRecord{Filter: "gateway", TaskID: root, At: 0.1, Accepted: true})
	rt.Hooks.Emit(core.EmitRecord{Stream: "gateway->mid", Filter: "gateway", TaskID: root, Bytes: 64, At: 0.1})
	rt.Hooks.Send(core.SendRecord{Stream: "gateway->mid", TaskID: root, At: 0.2})
	rt.Hooks.Deliver(core.DeliverRecord{Stream: "gateway->mid", Filter: "mid", TaskID: root, At: 0.3})
	rt.Hooks.Process(core.ProcRecord{TaskID: root, Filter: "mid", Start: 0.3, End: 0.5})
	rt.Hooks.Emit(core.EmitRecord{Stream: "mid->serve", Filter: "mid", TaskID: child, Parent: root, At: 0.5})
	rt.Hooks.Send(core.SendRecord{Stream: "mid->serve", TaskID: child, At: 0.6})
	rt.Hooks.Deliver(core.DeliverRecord{Stream: "mid->serve", Filter: "serve", Instance: 1, TaskID: child, At: 0.7})
	rt.Hooks.Span(core.SpanRecord{Filter: "serve", Instance: 1, TaskID: child, Kind: xfer.SpanH2D, Start: 0.7, End: 0.75})
	rt.Hooks.Process(core.ProcRecord{TaskID: child, Parent: root, Filter: "serve", Instance: 1, Kind: hw.GPU,
		Start: 0.7, End: 0.9})
}

// lineageStream replays one request on a bare bus: root 1, admitted at 0.1,
// is processed by "mid" over [0.3, 0.5] and forwards children 2 and 3 to
// "serve". With processFirst each child's Process record, which carries its
// parent, arrives before its Emit. reparent first links child 3 under an
// unrelated task 9 through its Process record, and its Emit then moves it.
func lineageStream(processFirst, reparent bool) *Collector {
	rt := &core.Runtime{}
	c := NewCollector()
	c.Attach(rt)
	rt.Hooks.Admit(core.AdmitRecord{Filter: "gateway", TaskID: 1, At: 0.1, Accepted: true})
	rt.Hooks.Emit(core.EmitRecord{Stream: "gateway->mid", Filter: "gateway", TaskID: 1, At: 0.1})
	rt.Hooks.Send(core.SendRecord{Stream: "gateway->mid", TaskID: 1, At: 0.2})
	rt.Hooks.Deliver(core.DeliverRecord{Stream: "gateway->mid", Filter: "mid", TaskID: 1, At: 0.3})
	rt.Hooks.Process(core.ProcRecord{TaskID: 1, Filter: "mid", Start: 0.3, End: 0.5})
	for _, id := range []uint64{2, 3} {
		parent := uint64(1)
		if reparent && id == 3 {
			parent = 9
		}
		proc := core.ProcRecord{TaskID: id, Parent: parent, Filter: "serve", Instance: 1,
			Start: 0.7, End: 0.8 + sim.Time(id)/10}
		if processFirst {
			rt.Hooks.Process(proc)
		}
		rt.Hooks.Emit(core.EmitRecord{Stream: "mid->serve", Filter: "mid", TaskID: id, Parent: 1, At: 0.5})
		rt.Hooks.Send(core.SendRecord{Stream: "mid->serve", TaskID: id, At: 0.6})
		rt.Hooks.Deliver(core.DeliverRecord{Stream: "mid->serve", Filter: "serve", Instance: 1, TaskID: id, At: 0.7})
		if !processFirst {
			rt.Hooks.Process(proc)
		}
	}
	return c
}

// TestBuildRequestParentBeforeEmit requires the same per-request attribution
// whichever of a child's Process and Emit records sets its parent first,
// and after an Emit moves a child from the parent its Process named.
func TestBuildRequestParentBeforeEmit(t *testing.T) {
	encode := func(name string, c *Collector) []byte {
		checkKids(t, name, c)
		a, err := c.BuildRequest(1)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if a.Buffers != 3 || a.FinalTask != 3 {
			t.Fatalf("%s: lineage of %d buffers ending at task %d, want 3 ending at task 3",
				name, a.Buffers, a.FinalTask)
		}
		data, err := a.Encode()
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := encode("emit first", lineageStream(false, false))
	for _, tc := range []struct {
		name                   string
		processFirst, reparent bool
	}{
		{"process first", true, false},
		{"process first, reparented by emit", true, true},
	} {
		if got := encode(tc.name, lineageStream(tc.processFirst, tc.reparent)); !bytes.Equal(got, want) {
			t.Errorf("%s: attribution\n%s\nwant\n%s", tc.name, got, want)
		}
	}
}

// BenchmarkBuildRequest rebuilds one request's lineage next to a growing
// number of unrelated requests; the time per rebuild stays flat because
// the walk touches only the request's own lineage.
func BenchmarkBuildRequest(b *testing.B) {
	for _, unrelated := range []int{1e3, 1e4, 1e5} {
		b.Run(fmt.Sprintf("unrelated=%d", unrelated), func(b *testing.B) {
			c := lineageStream(false, false)
			rt := &core.Runtime{}
			c.Attach(rt)
			for i := 0; i < unrelated; i++ {
				id := uint64(100 + 2*i)
				rt.Hooks.Admit(core.AdmitRecord{Filter: "gateway", TaskID: id, At: 1, Accepted: true})
				rt.Hooks.Emit(core.EmitRecord{Stream: "gateway->mid", Filter: "gateway", TaskID: id, At: 1})
				rt.Hooks.Process(core.ProcRecord{TaskID: id, Filter: "mid", Start: 1, End: 2})
				rt.Hooks.Emit(core.EmitRecord{Stream: "mid->serve", Filter: "mid", TaskID: id + 1, Parent: id, At: 2})
				rt.Hooks.Process(core.ProcRecord{TaskID: id + 1, Parent: id, Filter: "serve", Start: 2, End: 3})
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := c.BuildRequest(1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
