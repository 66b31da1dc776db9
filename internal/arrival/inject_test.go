package arrival_test

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// TestPaceManualClock drives Drive's pacer from outside on a hand-advanced
// clock, the way a live server advances the kernel tick by tick: at every
// hand position exactly the arrivals due by then have been built, in order,
// each at its own instant. A tick of 2^-10 s keeps the hand's sums exact.
func TestPaceManualClock(t *testing.T) {
	tick := sim.Time(1.0 / 1024)
	times := []sim.Time{0, tick, tick, 4 * tick}
	k := sim.NewKernel(1)
	rt := core.New(hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil), nil)
	gw := rt.AddFilter(core.FilterSpec{Name: "gateway", Placement: []int{0}, Open: true})
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(*core.Ctx, *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, policy.DDFCFS(2))
	var ks []int
	var ats []sim.Time
	st := arrival.Drive(rt, gw, times, func(i int) *task.Task {
		ks = append(ks, i)
		ats = append(ats, k.Now())
		return &task.Task{Size: 1 << 10, OutSize: 64, Cost: func(*task.Task, hw.Kind) sim.Time { return tick / 4 }}
	})

	c := &sim.ManualClock{}
	rt.Start()
	for n := 0; ; n++ {
		done, err := k.AdvanceTo(c.Now())
		if err != nil {
			t.Fatal(err)
		}
		due := 0
		for _, at := range times {
			if at <= c.Now() {
				due++
			}
		}
		if len(ks) != due {
			t.Fatalf("hand at %v: %d arrivals built, want the %d due", c.Now(), len(ks), due)
		}
		if done {
			break
		}
		if n == 100 {
			t.Fatal("run not drained after 100 ticks")
		}
		c.Sleep(tick)
	}
	if _, err := rt.Finish(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ks, []int{0, 1, 2, 3}) {
		t.Fatalf("arrivals built as %v", ks)
	}
	if !reflect.DeepEqual(ats, times) {
		t.Fatalf("arrivals built at %v, want %v", ats, times)
	}
	if st.Offered != len(times) {
		t.Fatalf("%d arrivals offered, want %d", st.Offered, len(times))
	}
}

// TestDriveInjectsAtInstants: Drive's pacer injects every arrival exactly at
// its instant, the first at 0, and injects arrivals with equal instants in
// one dispatch, without yielding between them: a process that yields at
// 1 ms, queued behind the pacer's wakeup, finds all three 1 ms arrivals
// offered, and the admission decisions at 1 ms see the gateway's send
// queue grow by one per arrival with nothing drained in between, until the
// queue bound sheds one. Every offered arrival is accepted or rejected.
func TestDriveInjectsAtInstants(t *testing.T) {
	const limit = 2
	ms := sim.Millisecond
	times := []sim.Time{0, 0, ms, ms, ms, 3 * ms}
	k := sim.NewKernel(1)
	rt := core.New(hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil), nil)
	gw := rt.AddFilter(core.FilterSpec{Name: "gateway", Placement: []int{0}, Open: true, QueueLimit: limit})
	srv := rt.AddFilter(core.FilterSpec{
		Name: "serve", Placement: []int{0}, CPUWorkers: 1,
		Handler: func(*core.Ctx, *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, policy.DDFCFS(2))
	var admits []core.AdmitRecord
	rt.Hooks.Admit = func(r core.AdmitRecord) { admits = append(admits, r) }

	// The observer's 1 ms timer is queued before the pacer's, so it wakes
	// first at 1 ms; its yield then goes behind the pacer's wakeup.
	var st *arrival.Stats
	offeredAt1ms := -1
	k.SpawnStep("observer", func(e *sim.Env) sim.Cont {
		return sim.After(ms, func(e *sim.Env) sim.Cont {
			return sim.After(0, func(e *sim.Env) sim.Cont {
				offeredAt1ms = st.Offered
				return sim.Done()
			})
		})
	})
	var made []sim.Time
	st = arrival.Drive(rt, gw, times, func(int) *task.Task {
		made = append(made, k.Now())
		return &task.Task{Size: 1 << 10, OutSize: 64, Cost: func(*task.Task, hw.Kind) sim.Time { return 10 * ms }}
	})
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}

	if !reflect.DeepEqual(made, times) {
		t.Fatalf("arrivals made at %v, want %v", made, times)
	}
	if offeredAt1ms != 5 {
		t.Errorf("a process yielding at 1 ms saw %d arrivals offered, want 5: the pacer yielded between equal instants", offeredAt1ms)
	}
	if len(admits) != len(times) {
		t.Fatalf("%d admission records, want %d", len(admits), len(times))
	}
	at1ms := admits[2:5]
	for i, r := range at1ms {
		if r.At != ms || r.Depth != at1ms[0].Depth+i {
			t.Fatalf("admissions at 1 ms: %+v; want depths growing by one at 1 ms", at1ms)
		}
	}
	var decided []string
	for _, r := range admits {
		decided = append(decided, fmt.Sprintf("%v@%v", r.Accepted, r.At))
	}
	if !at1ms[0].Accepted || !at1ms[1].Accepted || at1ms[2].Accepted {
		t.Errorf("decisions %v: want the third 1 ms arrival shed at depth %d", decided, limit)
	}
	if st.Offered != len(times) || st.Accepted+st.Rejected != st.Offered || st.Rejected == 0 {
		t.Errorf("stats %+v: want %d offered, each accepted or rejected, some rejected", *st, len(times))
	}
}
