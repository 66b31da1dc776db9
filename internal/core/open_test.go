package core_test

// Backpressure invariants for the open-system serving mode: under sustained
// overload the Open source's admission bound must actually bound its send
// queue, every offered request must be either admitted or shed (never lost),
// and every admitted request must be delivered downstream exactly once.

import (
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// runOverload drives an Open gateway with a uniform arrival stream twice as
// fast as the single serve worker can drain, and returns the arrival stats
// plus everything the hooks observed.
func runOverload(t *testing.T, limit int) (st *arrival.Stats, res core.Result, admits []core.AdmitRecord, maxSendDepth int, delivered map[uint64]int) {
	t.Helper()
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	rt := core.New(c, nil)

	delivered = make(map[uint64]int)
	rt.Hooks = core.Bus{
		Admit: func(r core.AdmitRecord) { admits = append(admits, r) },
		QueueDepth: func(r core.QueueDepthRecord) {
			if r.Filter == "gateway" && r.Queue == "send" && r.Depth > maxSendDepth {
				maxSendDepth = r.Depth
			}
		},
		Deliver: func(r core.DeliverRecord) {
			if r.Filter == "serve" {
				delivered[r.TaskID]++
			}
		},
	}

	gw := rt.AddFilter(core.FilterSpec{
		Name: "gateway", Placement: []int{0},
		Open: true, QueueLimit: limit,
	})
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, policy.DDFCFS(2))

	// 120 requests every 0.5 ms against a 1 ms service time: the queue must
	// hit the bound and shed.
	sched := &arrival.Schedule{Procs: []arrival.Proc{{Kind: arrival.Uniform, Rate: 2000, N: 120}}}
	st = arrival.Drive(rt, gw, sched.Times(1), func(k int) *task.Task {
		return &task.Task{
			Size: 1 << 10, OutSize: 256,
			Cost:    func(*task.Task, hw.Kind) sim.Time { return sim.Millisecond },
			Payload: k,
		}
	})

	res, err := rt.Run()
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.Validate(); err != nil {
		t.Fatal(err)
	}
	return st, res, admits, maxSendDepth, delivered
}

func TestOpenAdmissionBoundsQueueUnderOverload(t *testing.T) {
	const limit = 8
	st, res, admits, maxSendDepth, delivered := runOverload(t, limit)

	if st.Offered != 120 {
		t.Fatalf("offered %d requests, want 120", st.Offered)
	}
	if st.Accepted+st.Rejected != st.Offered {
		t.Errorf("conservation broken: accepted %d + rejected %d != offered %d",
			st.Accepted, st.Rejected, st.Offered)
	}
	if st.Rejected == 0 {
		t.Error("overload run shed nothing: admission control never engaged")
	}
	if st.Accepted == 0 {
		t.Error("overload run admitted nothing")
	}
	if res.Completed != int64(st.Offered) {
		t.Errorf("tracker saw %d lineages, want one per offered request (%d)", res.Completed, st.Offered)
	}

	// The bound: a request is admitted only when the pre-insertion depth is
	// below the limit, so the send queue never exceeds it.
	if maxSendDepth > limit {
		t.Errorf("gateway send queue reached depth %d, limit %d", maxSendDepth, limit)
	}
	if maxSendDepth < limit {
		t.Errorf("gateway send queue peaked at %d without reaching the limit %d: not an overload run",
			maxSendDepth, limit)
	}

	// Every offered request produced exactly one admit record, consistent
	// with the stats; rejected records carry no task ID.
	acc, rej := 0, 0
	for _, r := range admits {
		if r.Filter != "gateway" || r.Limit != limit {
			t.Fatalf("unexpected admit record %+v", r)
		}
		if r.Accepted {
			acc++
			if r.TaskID == 0 {
				t.Error("accepted admit record has no task ID")
			}
			if r.Depth >= limit {
				t.Errorf("admitted at depth %d, limit %d", r.Depth, limit)
			}
		} else {
			rej++
			if r.TaskID != 0 {
				t.Error("rejected admit record carries a task ID")
			}
			if r.Depth < limit {
				t.Errorf("rejected at depth %d below limit %d", r.Depth, limit)
			}
		}
	}
	if acc != st.Accepted || rej != st.Rejected {
		t.Errorf("admit records count %d/%d, stats say %d/%d", acc, rej, st.Accepted, st.Rejected)
	}

	// No lost or duplicated requests: each admitted task is delivered to the
	// serve filter exactly once.
	if len(delivered) != st.Accepted {
		t.Errorf("%d distinct tasks delivered, want %d (one per admitted request)",
			len(delivered), st.Accepted)
	}
	for id, n := range delivered {
		if n != 1 {
			t.Errorf("task %d delivered %d times", id, n)
		}
	}
}

// TestOpenUnboundedAdmitsEverything: with QueueLimit zero the gateway takes
// the whole burst — the pre-existing unbounded behaviour stays available.
func TestOpenUnboundedAdmitsEverything(t *testing.T) {
	st, _, admits, maxSendDepth, delivered := runOverload(t, 0)
	if st.Rejected != 0 || st.Accepted != st.Offered {
		t.Fatalf("unbounded gateway shed requests: %+v", *st)
	}
	for _, r := range admits {
		if !r.Accepted || r.Limit != 0 {
			t.Fatalf("unexpected admit record %+v", r)
		}
	}
	if maxSendDepth <= 8 {
		t.Errorf("unbounded overload queue peaked at %d: expected it to blow past a small bound", maxSendDepth)
	}
	if len(delivered) != st.Offered {
		t.Errorf("%d distinct tasks delivered, want %d", len(delivered), st.Offered)
	}
}
