package core_test

// Golden message-path traces. The pipeline here is chosen to cross every
// per-message helper: lazy multi-instance source (sender serve loop, reply
// transmission, fetch), a forwarding+resubmitting middle stage (resubmit
// chain), a GPU sink in asynchronous copy mode (h2d/d2h chains), remote and
// local network hops, DQAA-driven demand, and a mid-run crash (dead-producer
// skips, reclaim paths). Its Result and full hook-bus record stream, record
// for record, are pinned to gzipped files under testdata. They were recorded
// while the blocking-coroutine twins of these helpers still existed, and
// both flavours reproduced them byte for byte.

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/simtest"
	"repro/internal/task"
)

// goldenTrace executes the representative pipeline and renders the run in
// its golden form: the Result on the first line, then the hook trace.
func goldenTrace(t *testing.T, serialRequester bool) []string {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.TwoNodeCluster(k)
	rt := core.New(c, nil)
	rt.Tun = core.Tunables{SerialRequester: serialRequester}
	rec := simtest.Record(rt)

	src := rt.AddFilter(core.FilterSpec{
		Name:        "reader",
		Placement:   []int{0, 1},
		SourceCount: func(int) int { return 60 },
		SourceMake: func(inst, i int) *task.Task {
			return &task.Task{
				Size: 40 << 10, OutSize: 4 << 10,
				Cost: func(_ *task.Task, kw hw.Kind) sim.Time {
					if kw == hw.GPU {
						return 300 * sim.Microsecond
					}
					return sim.Millisecond
				},
				Payload: 0,
			}
		},
	})
	mid := rt.AddFilter(core.FilterSpec{
		Name: "normalize", Placement: []int{0, 1}, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action {
			act := core.Action{Forward: []*task.Task{{
				Size: 24 << 10, OutSize: 2 << 10,
				Cost: func(_ *task.Task, kw hw.Kind) sim.Time {
					if kw == hw.GPU {
						return 200 * sim.Microsecond
					}
					return 800 * sim.Microsecond
				},
				Payload: tk.Payload,
			}}}
			// First-generation work occasionally recalculates: the
			// resubmission re-enters at the root source filter.
			if gen := tk.Payload.(int); gen == 0 && tk.ID%7 == 0 {
				act.Resubmit = []*task.Task{{
					Size: 40 << 10, OutSize: 4 << 10,
					Cost:    func(*task.Task, hw.Kind) sim.Time { return 500 * sim.Microsecond },
					Payload: 1,
				}}
			}
			return act
		},
	})
	sink := rt.AddFilter(core.FilterSpec{
		Name: "classify", Placement: []int{1},
		UseGPU: true, GPUWorkers: 1, CPUWorkers: 0,
		AsyncCopy: true, MaxConcurrentCopies: 4,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, mid, policy.ODDS())
	rt.Connect(mid, sink, policy.DDWRR(4))

	// Fail-stop one middle instance mid-run via the scripted fault layer.
	simtest.Apply(t, rt, "crash:filter=normalize,inst=1,at=8ms")

	// Advance under a virtual-time cap (the pinned run drains at ~0.12 s)
	// so a regression that livelocks the protocol fails fast instead of
	// recording without bound.
	rt.Start()
	if done, err := rt.K.AdvanceTo(sim.Second); err != nil || !done {
		t.Fatalf("run not drained by 1 s of virtual time (err %v)", err)
	}
	res, err := rt.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 || res.Makespan == 0 {
		t.Fatalf("degenerate run: %+v", res)
	}
	if rec.Count("fault") == 0 {
		t.Error("trace has no fault record: the crash did not land mid-run")
	}
	if rec.Count("span") == 0 {
		t.Error("trace has no GPU pipeline spans: the async executor was not exercised")
	}
	return append([]string{fmt.Sprintf("result %+v", res)}, rec.Lines()...)
}

// TestGoldenMessagePath pins the message path under pipelined requesters
// (the default protocol) to its checked-in trace.
func TestGoldenMessagePath(t *testing.T) {
	simtest.Golden(t, "testdata/message_path.trace.gz", goldenTrace(t, false))
}

// TestGoldenMessagePathSerialRequester pins the SerialRequester ablation,
// where the fetch chains on the requester process itself instead of a
// spawned helper.
func TestGoldenMessagePathSerialRequester(t *testing.T) {
	simtest.Golden(t, "testdata/message_path_serial.trace.gz", goldenTrace(t, true))
}
