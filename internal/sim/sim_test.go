package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// op is one operation of a test script: it does its work and runs next,
// or arms next on a wait.
type op func(e *Env, next Step) Cont

// then returns the step running ops in order and then next.
func then(ops []op, next Step) Step {
	if len(ops) == 0 {
		return next
	}
	return func(e *Env) Cont { return ops[0](e, then(ops[1:], next)) }
}

// script returns a process running ops in order.
func script(ops ...op) Step { return then(ops, DoneStep) }

// sleep waits d of virtual time.
func sleep(d Time) op { return func(e *Env, next Step) Cont { return After(d, next) } }

// do runs f without waiting.
func do(f func(e *Env)) op { return func(e *Env, next Step) Cont { f(e); return next(e) } }

// loop runs body for as long as cond holds at the top of an iteration.
func loop(cond func() bool, body ...op) op {
	return func(e *Env, next Step) Cont {
		var again Step
		again = func(e *Env) Cont {
			if !cond() {
				return next(e)
			}
			return then(body, again)(e)
		}
		return again(e)
	}
}

// repeat runs body n times.
func repeat(n int, body ...op) op {
	return func(e *Env, next Step) Cont {
		i := 0
		return loop(func() bool { i++; return i <= n }, body...)(e, next)
	}
}

func put[T any](c *Chan[T], v T) op {
	return func(e *Env, next Step) Cont { return c.PutThen(e, v, next) }
}

// get receives from c and hands the value to f.
func get[T any](c *Chan[T], f func(e *Env, v T, ok bool)) op {
	return func(e *Env, next Step) Cont {
		return c.GetThen(e, func(e *Env, v T, ok bool) Cont { f(e, v, ok); return next(e) })
	}
}

func acquire(r *Resource) op {
	return func(e *Env, next Step) Cont { return r.AcquireThen(e, next) }
}

func release(r *Resource) op { return do(func(*Env) { r.Release() }) }

// use runs body while holding one unit of r and releases it after.
func use(r *Resource, body ...op) op {
	return func(e *Env, next Step) Cont {
		return r.AcquireThen(e, then(body, func(e *Env) Cont { r.Release(); return next(e) }))
	}
}

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	mark := do(func(e *Env) { at = append(at, e.Now()) })
	k.SpawnStep("sleeper", script(mark, sleep(1.5), mark, sleep(0.25), mark))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{0, 1.5, 1.75}
	if !reflect.DeepEqual(at, want) {
		t.Fatalf("timestamps = %v, want %v", at, want)
	}
}

func TestSameTimeEventsRunFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []string
	for _, name := range []string{"a", "b", "c"} {
		name := name
		k.SpawnStep(name, script(sleep(1), do(func(*Env) { order = append(order, name) })))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[a b c]" {
		t.Fatalf("order = %v", order)
	}
}

func TestNegativeSleepIsZero(t *testing.T) {
	k := NewKernel(1)
	k.SpawnStep("p", script(sleep(-5), do(func(e *Env) {
		if e.Now() != 0 {
			t.Errorf("now = %v after negative sleep", e.Now())
		}
	})))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	child := script(sleep(3), do(func(e *Env) {
		childRan = true
		if e.Now() != 5 {
			t.Errorf("child finished at %v, want 5", e.Now())
		}
	}))
	k.SpawnStep("parent", script(sleep(2), do(func(e *Env) { e.SpawnStep("child", child) })))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.SpawnStep("boom", func(e *Env) Cont {
		panic("kaboom")
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected error from panicking process")
	}
}

func TestRunUntilHorizon(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	k.SpawnStep("ticker", script(repeat(100, sleep(1), do(func(*Env) { ticks++ }))))
	if err := k.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

// TestBlockedProcessesKilledCleanly: a process still waiting when the
// queue drains is dropped: Run succeeds, its continuation never runs, and
// its record ends done with no step left to run.
func TestBlockedProcessesKilledCleanly(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 0)
	resumed := false
	k.SpawnStep("stuck", script(get(ch, func(*Env, int, bool) { resumed = true }))) // never satisfied
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if resumed {
		t.Fatal("the dropped process resumed")
	}
	if p := k.procs[0]; p.state != stateDone || p.step != nil {
		t.Fatalf("dropped process left in state %d with a step", p.state)
	}
}

func TestChanBufferedFIFO(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 3)
	var got []int
	i := 0
	k.SpawnStep("producer", script(
		repeat(6, func(e *Env, next Step) Cont { i++; return ch.PutThen(e, i, next) }),
		do(ch.Close)))
	open := true
	k.SpawnStep("consumer", script(loop(func() bool { return open },
		get(ch, func(_ *Env, v int, ok bool) {
			if open = ok; ok {
				got = append(got, v)
			}
		}),
		sleep(1))))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, []int{1, 2, 3, 4, 5, 6}) {
		t.Fatalf("got %v", got)
	}
}

func TestChanRendezvousBlocksPutter(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[string](k, 0)
	var putDone Time = -1
	k.SpawnStep("putter", script(put(ch, "x"), do(func(e *Env) { putDone = e.Now() })))
	k.SpawnStep("getter", script(sleep(7), get(ch, func(_ *Env, v string, ok bool) {
		if !ok || v != "x" {
			t.Errorf("get = %q, %v", v, ok)
		}
	})))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if putDone != 7 {
		t.Fatalf("putter unblocked at %v, want 7", putDone)
	}
}

func TestChanCloseWakesGetters(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 1)
	results := map[string]bool{}
	for _, name := range []string{"g1", "g2"} {
		name := name
		k.SpawnStep(name, script(get(ch, func(_ *Env, _ int, ok bool) { results[name] = ok })))
	}
	k.SpawnStep("closer", script(sleep(1), do(ch.Close)))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if results["g1"] || results["g2"] {
		t.Fatalf("getters should see ok=false, got %v", results)
	}
}

func TestChanTryGet(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 2)
	k.SpawnStep("p", script(
		do(func(*Env) {
			if _, ok := ch.TryGet(); ok {
				t.Error("TryGet on empty channel returned ok")
			}
		}),
		put(ch, 42),
		do(func(*Env) {
			v, ok := ch.TryGet()
			if !ok || v != 42 {
				t.Errorf("TryGet = %v, %v", v, ok)
			}
		})))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.SpawnStep(fmt.Sprintf("user%d", i), script(acquire(res), sleep(10), release(res),
			do(func(e *Env) { finish = append(finish, e.Now()) })))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 20, 30}
	if !reflect.DeepEqual(finish, want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
}

func TestResourceCapacityTwoOverlaps(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, 2)
	var finish []Time
	for i := 0; i < 4; i++ {
		k.SpawnStep(fmt.Sprintf("user%d", i), script(acquire(res), sleep(10), release(res),
			do(func(e *Env) { finish = append(finish, e.Now()) })))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{10, 10, 20, 20}
	if !reflect.DeepEqual(finish, want) {
		t.Fatalf("finish = %v, want %v", finish, want)
	}
}

func TestSignalBroadcastAndLateWait(t *testing.T) {
	k := NewKernel(1)
	sig := NewSignal(k)
	var woke []Time
	wait := func(e *Env, next Step) Cont { return sig.WaitThen(e, next) }
	mark := do(func(e *Env) { woke = append(woke, e.Now()) })
	for i := 0; i < 2; i++ {
		k.SpawnStep("waiter", script(wait, mark))
	}
	k.SpawnStep("firer", script(sleep(5), do(func(*Env) { sig.Fire() })))
	k.SpawnStep("late", script(sleep(9), wait, mark)) // already fired: goes on at once
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []Time{5, 5, 9}
	if !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}

func TestCondNotifyAll(t *testing.T) {
	k := NewKernel(1)
	cond := NewCond(k)
	ready := false
	served := 0
	for i := 0; i < 3; i++ {
		k.SpawnStep("w", script(
			loop(func() bool { return !ready }, func(e *Env, next Step) Cont { return cond.WaitThen(e, next) }),
			do(func(*Env) { served++ })))
	}
	k.SpawnStep("n", script(sleep(1), do(func(*Env) {
		ready = true
		cond.NotifyAll()
	})))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if served != 3 {
		t.Fatalf("served = %d, want 3", served)
	}
}

func TestWaitGroup(t *testing.T) {
	k := NewKernel(1)
	wg := NewWaitGroup(k)
	wg.Add(3)
	for i := 1; i <= 3; i++ {
		k.SpawnStep("worker", script(sleep(Time(i)), do(func(*Env) { wg.Done() })))
	}
	var joined Time = -1
	k.SpawnStep("joiner", script(
		func(e *Env, next Step) Cont { return wg.WaitThen(e, next) },
		do(func(e *Env) { joined = e.Now() })))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if joined != 3 {
		t.Fatalf("joined at %v, want 3", joined)
	}
}

// traceRun executes a randomized producer/consumer workload and returns a
// trace of every consumption with its virtual timestamp. Used to check that
// identical seeds produce identical executions.
func traceRun(seed int64, nProducers, nItems int) []string {
	k := NewKernel(seed)
	ch := NewChan[string](k, 2)
	var trace []string
	wg := NewWaitGroup(k)
	wg.Add(nProducers)
	for p := 0; p < nProducers; p++ {
		i := 0
		k.SpawnStep(fmt.Sprintf("prod%d", p), script(
			repeat(nItems,
				func(e *Env, next Step) Cont { return After(Time(e.Rand().Float64()), next) },
				func(e *Env, next Step) Cont {
					i++
					return ch.PutThen(e, fmt.Sprintf("p%d-i%d", p, i-1), next)
				}),
			do(func(*Env) { wg.Done() })))
	}
	open := true
	k.SpawnStep("cons", script(loop(func() bool { return open },
		get(ch, func(e *Env, v string, ok bool) {
			if open = ok; ok {
				trace = append(trace, fmt.Sprintf("%.6f:%s", float64(e.Now()), v))
			}
		}),
		func(e *Env, next Step) Cont {
			if !open {
				return next(e)
			}
			return After(Time(e.Rand().Float64()*0.1), next)
		})))
	k.SpawnStep("closer", script(
		func(e *Env, next Step) Cont { return wg.WaitThen(e, next) },
		do(ch.Close)))
	if err := k.Run(); err != nil {
		panic(err)
	}
	return trace
}

func TestDeterminismProperty(t *testing.T) {
	f := func(seed int64) bool {
		a := traceRun(seed, 3, 5)
		b := traceRun(seed, 3, 5)
		return reflect.DeepEqual(a, b) && len(a) == 15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEventOrderingProperty(t *testing.T) {
	// Property: N processes sleeping random durations always complete in
	// nondecreasing time order, and ties resolve in spawn order.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		k := NewKernel(seed)
		n := 20
		type fin struct {
			id int
			at Time
		}
		var fins []fin
		for i := 0; i < n; i++ {
			i := i
			d := Time(rng.Intn(5)) // coarse durations force ties
			k.SpawnStep("p", script(sleep(d), do(func(e *Env) { fins = append(fins, fin{i, e.Now()}) })))
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(fins); i++ {
			if fins[i].at < fins[i-1].at {
				return false
			}
			if fins[i].at == fins[i-1].at && fins[i].id < fins[i-1].id {
				return false
			}
		}
		return len(fins) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestChanConservationProperty(t *testing.T) {
	// Property: every item put is got exactly once, in per-producer order.
	f := func(seed int64, capRaw uint8) bool {
		capacity := int(capRaw % 5)
		k := NewKernel(seed)
		ch := NewChan[[2]int](k, capacity)
		const producers, items = 4, 10
		wg := NewWaitGroup(k)
		wg.Add(producers)
		got := make([][]int, producers)
		for p := 0; p < producers; p++ {
			i := 0
			k.SpawnStep("prod", script(
				repeat(items,
					func(e *Env, next Step) Cont { return After(Time(e.Rand().Float64()), next) },
					func(e *Env, next Step) Cont {
						i++
						return ch.PutThen(e, [2]int{p, i - 1}, next)
					}),
				do(func(*Env) { wg.Done() })))
		}
		open := true
		k.SpawnStep("cons", script(loop(func() bool { return open },
			get(ch, func(_ *Env, v [2]int, ok bool) {
				if open = ok; ok {
					got[v[0]] = append(got[v[0]], v[1])
				}
			}))))
		k.SpawnStep("closer", script(
			func(e *Env, next Step) Cont { return wg.WaitThen(e, next) },
			do(ch.Close)))
		if err := k.Run(); err != nil {
			return false
		}
		for p := 0; p < producers; p++ {
			if len(got[p]) != items {
				return false
			}
			for i, v := range got[p] {
				if v != i {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestRunTwiceFails(t *testing.T) {
	k := NewKernel(1)
	k.SpawnStep("p", script(sleep(1)))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if err := k.Run(); err == nil {
		t.Fatal("second Run should fail")
	}
}

func TestChanCloseTwicePanics(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 1)
	k.SpawnStep("p", func(e *Env) Cont {
		ch.Close(e)
		defer func() {
			if recover() == nil {
				t.Error("double close did not panic")
			}
		}()
		ch.Close(e)
		return Done()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanPutOnClosedPanics(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 1)
	k.SpawnStep("p", func(e *Env) Cont {
		ch.Close(e)
		defer func() {
			if recover() == nil {
				t.Error("put on closed did not panic")
			}
		}()
		return ch.PutThen(e, 1, DoneStep)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 1)
	k.SpawnStep("p", func(e *Env) Cont {
		defer func() {
			if recover() == nil {
				t.Error("release of idle resource did not panic")
			}
		}()
		r.Release()
		return Done()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestResourceUseHelper: use holds the unit for the whole body, waits
// included, and releases it after, straight to a second user waiting for
// it, which releases it in turn.
func TestResourceUseHelper(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 1)
	ran := false
	var second Time = -1
	k.SpawnStep("p", script(
		use(r,
			do(func(*Env) {
				if r.InUse() != 1 {
					t.Error("resource not held inside use")
				}
			}),
			sleep(5),
			do(func(*Env) {
				if r.InUse() != 1 {
					t.Error("resource not held across a wait inside use")
				}
				ran = true
			})),
		do(func(*Env) {
			if r.InUse() != 1 || second != -1 {
				t.Error("unit not handed over to the waiting user on release")
			}
		})))
	k.SpawnStep("q", script(use(r, do(func(e *Env) { second = e.Now() }))))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("use body did not run")
	}
	if second != 5 || r.InUse() != 0 {
		t.Fatalf("second user got the unit at %v, %d in use after both; want 5 and 0", second, r.InUse())
	}
}

func TestCondNotifyOne(t *testing.T) {
	k := NewKernel(1)
	cond := NewCond(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.SpawnStep("w", script(
			func(e *Env, next Step) Cont { return cond.WaitThen(e, next) },
			do(func(*Env) { woken++ })))
	}
	k.SpawnStep("n", script(
		sleep(1), do(func(*Env) { cond.NotifyOne() }),
		sleep(1), do(func(*Env) {
			if woken != 1 {
				t.Errorf("after NotifyOne: woken = %d", woken)
			}
			cond.NotifyAll()
		})))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if woken != 3 {
		t.Fatalf("woken = %d", woken)
	}
}

func TestTimeHelpers(t *testing.T) {
	d := 1500 * Microsecond
	if d.Seconds() != 0.0015 || d.Milliseconds() != 1.5 {
		t.Fatalf("conversions: %v %v", d.Seconds(), d.Milliseconds())
	}
}

func TestChanMixedBufferedContention(t *testing.T) {
	// Property: with capacity 1 and many blocked putters, values still
	// arrive in put order, and no value is lost or duplicated.
	f := func(seed int64) bool {
		k := NewKernel(seed)
		ch := NewChan[int](k, 1)
		const n = 12
		for i := 0; i < n; i++ {
			k.SpawnStep("p", script(put(ch, i)))
		}
		var got []int
		k.SpawnStep("c", script(loop(func() bool { return len(got) < n },
			get(ch, func(_ *Env, v int, _ bool) { got = append(got, v) }),
			func(e *Env, next Step) Cont { return After(Time(e.Rand().Float64()*0.01), next) })))
		if err := k.Run(); err != nil {
			return false
		}
		if len(got) != n {
			return false
		}
		for i, v := range got {
			if v != i {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnOrderAtSameInstant(t *testing.T) {
	// Processes spawned at the same instant start in spawn order.
	k := NewKernel(1)
	var order []int
	for i := 0; i < 5; i++ {
		k.SpawnStep("p", script(do(func(*Env) { order = append(order, i) })))
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("start order = %v", order)
		}
	}
}

func TestAccessorsAndValidation(t *testing.T) {
	k := NewKernel(5)
	if k.Now() != 0 {
		t.Fatal("fresh kernel time nonzero")
	}
	if k.Rand() == nil {
		t.Fatal("kernel RNG nil")
	}
	ch := NewChan[int](k, 2)
	if ch.Len() != 0 || ch.Closed() {
		t.Fatal("fresh channel state wrong")
	}
	r := NewResource(k, 2)
	if r.Capacity() != 2 || r.InUse() != 0 {
		t.Fatal("fresh resource state wrong")
	}
	k.SpawnStep("p", script(
		do(func(e *Env) {
			if e.Name() != "p" || e.Kernel() != k || e.Rand() == nil {
				t.Error("env accessors wrong")
			}
		}),
		put(ch, 1),
		do(func(*Env) {
			if ch.Len() != 1 {
				t.Error("len after put")
			}
		}),
		get(ch, func(*Env, int, bool) {}),
		do(func(e *Env) {
			ch.Close(e)
			if !ch.Closed() {
				t.Error("Closed() false after close")
			}
		}),
		acquire(r),
		do(func(*Env) {
			if r.InUse() != 1 {
				t.Error("resource not held after acquire")
			}
		}),
		release(r),
		do(func(*Env) {
			if r.InUse() != 0 {
				t.Error("resource held after release")
			}
		})))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []func(){
		func() { NewChan[int](k, -1) },
		func() { NewResource(k, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestMM1QueueMatchesTheory(t *testing.T) {
	// Statistical validation of the kernel against queueing theory: an
	// M/M/1 queue with utilization rho has mean number-in-system
	// L = rho/(1-rho) (by Little's law applied to the stationary mean).
	// Simulate Poisson arrivals and exponential service and compare.
	const (
		lambda = 0.7 // arrivals per unit time
		mu     = 1.0 // services per unit time
		rho    = lambda / mu
		horiz  = 200_000.0
	)
	k := NewKernel(1234)
	server := NewResource(k, 1)
	var areaL float64 // time-integral of number-in-system
	inSystem := 0
	lastChange := Time(0)
	account := func(now Time, delta int) {
		areaL += float64(inSystem) * float64(now-lastChange)
		lastChange = now
		inSystem += delta
	}
	arrivals := loop(func() bool { return k.Now() < horiz },
		func(e *Env, next Step) Cont { return After(Time(e.Rand().ExpFloat64()/lambda), next) },
		do(func(e *Env) {
			account(e.Now(), +1)
			service := Time(e.Rand().ExpFloat64() / mu)
			e.SpawnStep("job", script(acquire(server), sleep(service), release(server),
				do(func(e *Env) { account(e.Now(), -1) })))
		}))
	k.SpawnStep("arrivals", script(arrivals))
	if err := k.RunUntil(horiz); err != nil {
		t.Fatal(err)
	}
	gotL := areaL / horiz
	wantL := rho / (1 - rho) // 2.333...
	if gotL < wantL*0.9 || gotL > wantL*1.1 {
		t.Fatalf("M/M/1 mean number-in-system = %.3f, theory %.3f", gotL, wantL)
	}
}

// TestBadHorizonRejected: a horizon the event order cannot compare against
// is an error that runs nothing. AdvanceTo takes only finite non-negative
// horizons and RunUntil anything but NaN; after a rejected call the kernel
// still runs the whole program.
func TestBadHorizonRejected(t *testing.T) {
	nan, inf := Time(math.NaN()), Time(math.Inf(1))
	for _, tc := range []struct {
		name string
		call func(k *Kernel) error
	}{
		{"AdvanceTo(NaN)", func(k *Kernel) error { _, err := k.AdvanceTo(nan); return err }},
		{"AdvanceTo(+Inf)", func(k *Kernel) error { _, err := k.AdvanceTo(inf); return err }},
		{"AdvanceTo(-Inf)", func(k *Kernel) error { _, err := k.AdvanceTo(-inf); return err }},
		{"AdvanceTo(-1)", func(k *Kernel) error { _, err := k.AdvanceTo(-1); return err }},
		{"RunUntil(NaN)", func(k *Kernel) error { return k.RunUntil(nan) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			steps := 0
			var sleep Step
			sleep = func(e *Env) Cont {
				if steps == 5 {
					return Done()
				}
				steps++
				return After(1, sleep)
			}
			k.SpawnStep("sleeper", sleep)
			if err := tc.call(k); err == nil {
				t.Fatal("accepted")
			}
			if steps != 0 || k.Now() != 0 {
				t.Fatalf("rejected call ran %d steps to now=%v", steps, k.Now())
			}
			if err := k.Run(); err != nil || steps != 5 || k.Now() != 5 {
				t.Fatalf("Run after the rejected call: err=%v steps=%d now=%v, want 5 steps to now=5", err, steps, k.Now())
			}
		})
	}
}

// TestChanPooledWaitersFIFO: getters on one channel, each waiting again as
// soon as it receives, take the values strictly round robin in the order
// they first queued, and so do putters on a rendezvous channel. Every wait after the first reuses a
// pooled waiter record: the channel never makes more records than it has
// waiters at once, and all of them are back on its free list at the end.
func TestChanPooledWaitersFIFO(t *testing.T) {
	const waiters, rounds = 4, 25
	t.Run("getters", func(t *testing.T) {
		k := NewKernel(1)
		ch := NewChan[int](k, 0)
		var got []string
		for i := 0; i < waiters; i++ {
			name := fmt.Sprintf("g%d", i)
			var recv func(e *Env, v int, ok bool) Cont
			recv = func(e *Env, v int, ok bool) Cont {
				if !ok {
					return Done()
				}
				got = append(got, fmt.Sprintf("%s:%d", name, v))
				return ch.GetThen(e, recv)
			}
			k.SpawnStep(name, func(e *Env) Cont { return ch.GetThen(e, recv) })
		}
		v := 0
		k.SpawnStep("producer", script(
			repeat(waiters*rounds, sleep(1), func(e *Env, next Step) Cont {
				v++
				return ch.PutThen(e, v-1, next)
			}),
			sleep(1), do(ch.Close)))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for v, s := range got {
			if want := fmt.Sprintf("g%d:%d", v%waiters, v); s != want {
				t.Fatalf("receive %d is %s, want %s (all: %v)", v, s, want, got)
			}
		}
		if len(got) != waiters*rounds {
			t.Fatalf("%d values received, want %d", len(got), waiters*rounds)
		}
		if len(ch.freeGet) != waiters {
			t.Fatalf("%d getter records pooled at the end, want %d", len(ch.freeGet), waiters)
		}
	})
	t.Run("putters", func(t *testing.T) {
		k := NewKernel(1)
		ch := NewChan[string](k, 0)
		for i := 0; i < waiters; i++ {
			name := fmt.Sprintf("p%d", i)
			r := 0
			var put Step
			put = func(e *Env) Cont {
				if r == rounds {
					return Done()
				}
				r++
				return ch.PutThen(e, fmt.Sprintf("%s:%d", name, r-1), put)
			}
			k.SpawnStep(name, put)
		}
		var got []string
		k.SpawnStep("consumer", script(loop(func() bool { return len(got) < waiters*rounds },
			sleep(1), get(ch, func(_ *Env, v string, _ bool) { got = append(got, v) }))))
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		for i, s := range got {
			if want := fmt.Sprintf("p%d:%d", i%waiters, i/waiters); s != want {
				t.Fatalf("value %d is %s, want %s (all: %v)", i, s, want, got)
			}
		}
		if len(ch.freePut) != waiters {
			t.Fatalf("%d putter records pooled at the end, want %d", len(ch.freePut), waiters)
		}
	})
}

// TestChanCloseWakesPooledStepGetters: step getters whose pooled records
// have already served several values are woken by Close with ok=false, as
// is a fresh GetThen on the closed channel, and no record is lost.
func TestChanCloseWakesPooledStepGetters(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 1)
	values := map[string]int{}
	closed := map[string]int{}
	for _, name := range []string{"a", "b", "c"} {
		name := name
		var recv func(e *Env, v int, ok bool) Cont
		recv = func(e *Env, v int, ok bool) Cont {
			if !ok {
				closed[name]++
				if closed[name] == 1 {
					return ch.GetThen(e, recv) // closed and drained: ok=false at once
				}
				return Done()
			}
			values[name]++
			return ch.GetThen(e, recv)
		}
		k.SpawnStep(name, func(e *Env) Cont { return ch.GetThen(e, recv) })
	}
	v := 0
	k.SpawnStep("producer", script(
		repeat(9, sleep(1), func(e *Env, next Step) Cont {
			v++
			return ch.PutThen(e, v-1, next)
		}),
		sleep(1), do(ch.Close)))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"a", "b", "c"} {
		if values[name] != 3 || closed[name] != 2 {
			t.Errorf("%s: %d values and %d ok=false wakes, want 3 and 2", name, values[name], closed[name])
		}
	}
	if len(ch.getQ) != 0 || len(ch.freeGet) != 3 {
		t.Fatalf("after close: %d queued getters and %d pooled records, want 0 and 3", len(ch.getQ), len(ch.freeGet))
	}
}

// TestSignalReset: a reset signal blocks its waiters again until the next
// Fire, and a reset of an unfired signal changes nothing.
func TestSignalReset(t *testing.T) {
	k := NewKernel(1)
	sig := NewSignal(k)
	sig.Reset()
	var woke []Time
	wait := func(e *Env, next Step) Cont { return sig.WaitThen(e, next) }
	k.SpawnStep("waiter", script(
		wait, do(func(e *Env) { woke = append(woke, e.Now()); sig.Reset() }),
		wait, do(func(e *Env) { woke = append(woke, e.Now()) })))
	fire := do(func(*Env) { sig.Fire() })
	k.SpawnStep("firer", script(sleep(2), fire, sleep(3), fire))
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{2, 5}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}
