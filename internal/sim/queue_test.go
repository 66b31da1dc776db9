package sim

// Tests of the event queue: the same-instant FIFO lane and the delay lanes
// merged with the timed heap, pointer-free event records, rejection of
// non-finite wakeup times, and the kernel's self-telemetry counters.

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// sleepProg is a set of processes, each a list of delays: process i logs
// "p<i>.<j>@<now>" before its j-th delay and once more after the last.
type sleepProg struct {
	delays [][]Time
}

// randomSleepProg draws delays from a coarse grid heavy in zeros, so many
// wakeups share an instant and zero-delay wakeups (lane) meet timers that
// came due at the same instant (heap).
func randomSleepProg(rng *rand.Rand) sleepProg {
	grid := []Time{0, 0, 0, 0.25, 0.5, 1}
	var p sleepProg
	for i, n := 0, 2+rng.Intn(7); i < n; i++ {
		ds := make([]Time, 1+rng.Intn(8))
		for j := range ds {
			ds[j] = grid[rng.Intn(len(grid))]
		}
		p.delays = append(p.delays, ds)
	}
	return p
}

// randomDelayProg draws from more distinct non-zero delays than the kernel
// has delay lanes, so lanes are rebound and wakeups overflow to the heap.
// The delays include non-dyadic ones (0.1, 0.3, 1/3), whose sums round, and
// 1e-18, which moves now off 0 but leaves any larger now unchanged
// (now+d == now), so such a wakeup belongs on the same-instant lane.
func randomDelayProg(rng *rand.Rand) sleepProg {
	grid := []Time{0, 0, 0, 0.1, 0.3, 1.0 / 3, 1e-18, 1e-18, 0.25, 0.7, 1, 1.5}
	var p sleepProg
	for i, n := 0, 2+rng.Intn(10); i < n; i++ {
		ds := make([]Time, 1+rng.Intn(12))
		for j := range ds {
			ds[j] = grid[rng.Intn(len(grid))]
		}
		p.delays = append(p.delays, ds)
	}
	return p
}

// spawn registers p's processes on k; onZero is called (if non-nil) just
// before each zero-delay wakeup is requested.
func (p sleepProg) spawn(k *Kernel, log *[]string, onZero func(e *Env)) {
	for i, ds := range p.delays {
		name := fmt.Sprintf("p%d", i)
		var at func(j int) Step
		at = func(j int) Step {
			return func(e *Env) Cont {
				*log = append(*log, fmt.Sprintf("%s.%d@%g", name, j, float64(e.Now())))
				if j == len(ds) {
					return Done()
				}
				if ds[j] == 0 && onZero != nil {
					onZero(e)
				}
				return After(ds[j], at(j+1))
			}
		}
		k.SpawnStep(name, at(0))
	}
}

// refRun is what the reference queue predicts for a sleep program: the
// dispatch log and the kernel's counters, all but DelayLanePushes, which
// depends on how timed wakeups are routed, not on their order. absorbed
// counts the wakeups with d > 0 that now+d leaves at now.
type refRun struct {
	log      []string
	stats    KernelStats
	absorbed int
}

// reference replays p on the textbook queue: one list ordered by
// (time, schedule order), popped from the front. A zero-delay wakeup with
// nothing else due at its instant is no push: the kernel's fast path runs
// it inline, without a dispatch. Any other wakeup at the instant it was
// scheduled at is a lane push, and a later one a timed push.
func (p sleepProg) reference() refRun {
	type ev struct {
		at     Time
		seq    int
		proc   int
		stepNo int
		timed  bool
		inline bool
	}
	var q []ev
	var r refRun
	seq, timed := 0, 0
	for i := range p.delays {
		q = append(q, ev{at: 0, seq: seq, proc: i})
		seq++
		r.stats.LanePushes++
	}
	for len(q) > 0 {
		min := 0
		for i := range q {
			if q[i].at < q[min].at || (q[i].at == q[min].at && q[i].seq < q[min].seq) {
				min = i
			}
		}
		e := q[min]
		q = append(q[:min], q[min+1:]...)
		if e.timed {
			timed--
		}
		if !e.inline {
			r.stats.Dispatched++
		}
		r.log = append(r.log, fmt.Sprintf("p%d.%d@%g", e.proc, e.stepNo, float64(e.at)))
		ds := p.delays[e.proc]
		if e.stepNo == len(ds) {
			continue
		}
		d := ds[e.stepNo]
		next := ev{at: e.at + d, seq: seq, proc: e.proc, stepNo: e.stepNo + 1}
		seq++
		dueNow := false
		for _, o := range q {
			dueNow = dueNow || o.at == e.at
		}
		switch {
		case d == 0 && !dueNow:
			next.inline = true
		case next.at == e.at:
			r.stats.LanePushes++
			if d > 0 {
				r.absorbed++
			}
		default:
			next.timed = true
			timed++
			r.stats.HeapPushes++
			r.stats.HeapHighWater = max(r.stats.HeapHighWater, timed)
		}
		q = append(q, next)
	}
	return r
}

// check fails t unless got and st are what r predicts.
func (r refRun) check(t *testing.T, what string, got []string, st KernelStats) {
	t.Helper()
	if strings.Join(got, " ") != strings.Join(r.log, " ") {
		t.Fatalf("%s: dispatch order\n got %v\nwant %v", what, got, r.log)
	}
	st.DelayLanePushes = 0
	if st != r.stats {
		t.Fatalf("%s: Stats() = %+v, want %+v (DelayLanePushes not compared)", what, st, r.stats)
	}
}

// TestPropertyLaneMergeOrder: over random sleep programs, dispatch order is exactly (time, schedule order), the order a single
// queue gives — merging the lane with the heap changes nothing.
func TestPropertyLaneMergeOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	for trial := 0; trial < 200; trial++ {
		p := randomSleepProg(rng)
		k := NewKernel(1)
		var got []string
		p.spawn(k, &got, nil)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		p.reference().check(t, fmt.Sprintf("trial %d", trial), got, k.Stats())
	}
}

// TestPropertyDueTimerBeforeLane: a timer scheduled earlier that comes due
// at the current instant dispatches before the lane entries (a spawn, a
// yield) pushed at that instant.
func TestPropertyDueTimerBeforeLane(t *testing.T) {
	k := NewKernel(1)
	var got []string
	logf := func(e *Env, what string) { got = append(got, fmt.Sprintf("%s@%g", what, float64(e.Now()))) }
	// "first" is due at 1 (pushed at 0); at 1 it spawns "child" and yields,
	// both onto the lane. "second" is due at 1 too, pushed at 0.5: it sits
	// in the timed queue at the current instant and must run before either
	// lane entry.
	k.SpawnStep("first", func(e *Env) Cont {
		return After(1, func(e *Env) Cont {
			logf(e, "first")
			e.SpawnStep("child", func(e *Env) Cont { logf(e, "child"); return Done() })
			return After(0, func(e *Env) Cont { logf(e, "first-resumed"); return Done() })
		})
	})
	k.SpawnStep("second", func(e *Env) Cont {
		return After(0.5, func(e *Env) Cont {
			return After(0.5, func(e *Env) Cont { logf(e, "second"); return Done() })
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := "first@1 second@1 child@1 first-resumed@1"
	if s := strings.Join(got, " "); s != want {
		t.Fatalf("dispatch order %q, want %q", s, want)
	}
}

// TestPropertyAdvanceToSlicesMatchRun: driving random sleep programs with
// AdvanceTo in slices whose horizons fall on the programs' own instants
// reproduces Run's dispatch order, including at boundary instants where
// zero-delay wakeups are queued on the lane behind the slice's last timer.
func TestPropertyAdvanceToSlicesMatchRun(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	laneAtBoundary := 0
	for trial := 0; trial < 200; trial++ {
		p := randomSleepProg(rng)
		want := p.reference()
		k := NewKernel(1)
		var got []string
		horizon := Time(0)
		p.spawn(k, &got, func(e *Env) {
			if e.Now() == horizon && e.k.pendingNow() {
				laneAtBoundary++
			}
		})
		for done := false; !done; {
			var err error
			if done, err = k.AdvanceTo(horizon); err != nil {
				t.Fatal(err)
			}
			horizon += Time(rng.Intn(3)) * 0.25
		}
		want.check(t, fmt.Sprintf("trial %d, sliced", trial), got, k.Stats())
	}
	if laneAtBoundary == 0 {
		t.Fatal("no trial queued a lane entry at a slice boundary instant")
	}
}

// TestPropertyDelayLanesMatchReference: over random programs with more
// distinct delays than delay lanes, under Run and under AdvanceTo slices,
// dispatch order and counters are the reference queue's. Across the trials lanes
// are rebound, wakeups overflow to the heap, and delays too small to move
// now go to the same-instant lane.
func TestPropertyDelayLanesMatchReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rebound, overflowed, absorbed := 0, 0, 0
	steps := []Time{0, 0.1, 0.25, 1.0 / 3}
	for trial := 0; trial < 300; trial++ {
		p := randomDelayProg(rng)
		want := p.reference()
		absorbed += want.absorbed
		for _, sliced := range []bool{false, true} {
			k := NewKernel(1)
			var got []string
			var bound [delayLanes]Time
			p.spawn(k, &got, func(e *Env) {
				for i := range e.k.delays {
					if d := e.k.delays[i].d; d != bound[i] {
						if bound[i] != 0 {
							rebound++
						}
						bound[i] = d
					}
				}
			})
			if !sliced {
				if err := k.Run(); err != nil {
					t.Fatal(err)
				}
			}
			for horizon, done := Time(0), !sliced; !done; horizon += steps[rng.Intn(len(steps))] {
				var err error
				if done, err = k.AdvanceTo(horizon); err != nil {
					t.Fatal(err)
				}
			}
			st := k.Stats()
			want.check(t, fmt.Sprintf("trial %d, sliced %v", trial, sliced), got, st)
			if st.HeapPushes > st.DelayLanePushes {
				overflowed++
			}
		}
	}
	if rebound == 0 || overflowed == 0 || absorbed == 0 {
		t.Fatalf("coverage: %d lane rebinds, %d runs with heap pushes, %d absorbed delays; want each > 0",
			rebound, overflowed, absorbed)
	}
	t.Logf("%d lane rebinds, %d runs with heap pushes, %d absorbed delays", rebound, overflowed, absorbed)
}

// hasPointers reports whether values of typ contain a pointer the garbage
// collector must trace.
func hasPointers(typ reflect.Type) bool {
	switch typ.Kind() {
	case reflect.Array:
		return typ.Len() > 0 && hasPointers(typ.Elem())
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if hasPointers(typ.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice,
		reflect.String, reflect.Interface, reflect.Func, reflect.Chan:
		return true
	default:
		return false
	}
}

// TestPropertyEventHasNoPointers: event records stay pointer-free, so the
// queue's backing arrays take no write barriers and are never scanned.
func TestPropertyEventHasNoPointers(t *testing.T) {
	if hasPointers(reflect.TypeOf(event{})) {
		t.Fatalf("event %+v holds a pointer; name processes by slot instead", event{})
	}
	if !hasPointers(reflect.TypeOf(struct{ p *proc }{})) {
		t.Fatal("hasPointers misses a pointer field")
	}
}

// TestNonFiniteWakeupFails: a NaN or +Inf wakeup time fails the run through
// the calling process instead of corrupting the queue's order.
func TestNonFiniteWakeupFails(t *testing.T) {
	nan, inf := Time(math.NaN()), Time(math.Inf(1))
	for _, tc := range []struct {
		name  string
		spawn func(k *Kernel)
	}{
		{"After(NaN)", func(k *Kernel) { k.SpawnStep("bad", func(e *Env) Cont { return After(nan, DoneStep) }) }},
		{"After(+Inf)", func(k *Kernel) { k.SpawnStep("bad", func(e *Env) Cont { return After(inf, DoneStep) }) }},
	} {
		k := NewKernel(1)
		var good []Time
		var tick Step
		tick = func(e *Env) Cont {
			if len(good) == 3 {
				return Done()
			}
			return After(Millisecond, func(e *Env) Cont {
				good = append(good, e.Now())
				return tick(e)
			})
		}
		k.SpawnStep("good", tick)
		tc.spawn(k)
		err := k.Run()
		if err == nil || !strings.Contains(err.Error(), `process "bad"`) || !strings.Contains(err.Error(), "non-finite") {
			t.Fatalf("%s: Run error %v, want a non-finite wakeup failure of process \"bad\"", tc.name, err)
		}
		if k.Now() != 0 || len(good) != 0 {
			t.Fatalf("%s: time moved to %v (good woke at %v) before the failure stopped the run", tc.name, k.Now(), good)
		}
	}
}

// TestKernelStats pins the self-telemetry counters on a small program.
func TestKernelStats(t *testing.T) {
	k := NewKernel(1)
	k.SpawnStep("a", func(e *Env) Cont {
		return After(1, func(e *Env) Cont {
			return After(1, func(e *Env) Cont {
				return After(0, DoneStep) // nothing else due at 2: inline, no push
			})
		})
	})
	k.SpawnStep("b", func(e *Env) Cont {
		return After(0, DoneStep) // c and d are due now: a lane push
	})
	k.SpawnStep("c", func(e *Env) Cont { return After(1, DoneStep) })
	k.SpawnStep("d", func(e *Env) Cont {
		e.k.schedule(3, e.p) // a wakeup the finished incarnation abandons
		return Done()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// Lane: four spawns and b's yield. Timed: a@1, c@1, d@3, a@2, three deep
	// at most; the delay lane bound to 1 takes a@1, c@1 and a@2, and d's
	// direct schedule goes to the heap. Dispatched: a b c d b at 0, a c at
	// 1, a at 2; d@3 is stale.
	want := KernelStats{Dispatched: 8, LanePushes: 5, HeapPushes: 4, DelayLanePushes: 3, HeapHighWater: 3, StaleDropped: 1}
	if got := k.Stats(); got != want {
		t.Fatalf("Stats() = %+v, want %+v", got, want)
	}
}
