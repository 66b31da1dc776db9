package sim

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestSleepAdvancesVirtualTime(t *testing.T) {
	k := NewKernel(1)
	var at []Time
	k.Spawn("sleeper", func(e *Env) {
		at = append(at, e.Now())
		e.Sleep(1.5)
		at = append(at, e.Now())
		e.Sleep(0.25)
		at = append(at, e.Now())
	})
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
		k.Spawn(name, func(e *Env) {
			e.Sleep(1)
			order = append(order, name)
		})
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
	k.Spawn("p", func(e *Env) {
		e.Sleep(-5)
		if e.Now() != 0 {
			t.Errorf("now = %v after negative sleep", e.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestSpawnFromProcess(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	k.Spawn("parent", func(e *Env) {
		e.Sleep(2)
		e.Spawn("child", func(e *Env) {
			e.Sleep(3)
			childRan = true
			if e.Now() != 5 {
				t.Errorf("child finished at %v, want 5", e.Now())
			}
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !childRan {
		t.Fatal("child never ran")
	}
}

func TestProcessPanicPropagates(t *testing.T) {
	k := NewKernel(1)
	k.Spawn("boom", func(e *Env) {
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
	k.Spawn("ticker", func(e *Env) {
		for i := 0; i < 100; i++ {
			e.Sleep(1)
			ticks++
		}
	})
	if err := k.RunUntil(10); err != nil {
		t.Fatal(err)
	}
	if ticks != 10 {
		t.Fatalf("ticks = %d, want 10", ticks)
	}
}

func TestBlockedProcessesKilledCleanly(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 0)
	cleaned := false
	k.Spawn("stuck", func(e *Env) {
		defer func() { cleaned = true }()
		ch.Get(e) // never satisfied
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !cleaned {
		t.Fatal("deferred cleanup did not run for killed process")
	}
}

func TestChanBufferedFIFO(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 3)
	var got []int
	k.Spawn("producer", func(e *Env) {
		for i := 1; i <= 6; i++ {
			ch.Put(e, i)
		}
		ch.Close(e)
	})
	k.Spawn("consumer", func(e *Env) {
		for {
			v, ok := ch.Get(e)
			if !ok {
				return
			}
			got = append(got, v)
			e.Sleep(1)
		}
	})
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
	k.Spawn("putter", func(e *Env) {
		ch.Put(e, "x")
		putDone = e.Now()
	})
	k.Spawn("getter", func(e *Env) {
		e.Sleep(7)
		v, ok := ch.Get(e)
		if !ok || v != "x" {
			t.Errorf("get = %q, %v", v, ok)
		}
	})
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
		k.Spawn(name, func(e *Env) {
			_, ok := ch.Get(e)
			results[name] = ok
		})
	}
	k.Spawn("closer", func(e *Env) {
		e.Sleep(1)
		ch.Close(e)
	})
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
	k.Spawn("p", func(e *Env) {
		if _, ok := ch.TryGet(); ok {
			t.Error("TryGet on empty channel returned ok")
		}
		ch.Put(e, 42)
		v, ok := ch.TryGet()
		if !ok || v != 42 {
			t.Errorf("TryGet = %v, %v", v, ok)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceSerializes(t *testing.T) {
	k := NewKernel(1)
	res := NewResource(k, 1)
	var finish []Time
	for i := 0; i < 3; i++ {
		k.Spawn(fmt.Sprintf("user%d", i), func(e *Env) {
			res.Acquire(e)
			e.Sleep(10)
			res.Release()
			finish = append(finish, e.Now())
		})
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
		k.Spawn(fmt.Sprintf("user%d", i), func(e *Env) {
			res.Acquire(e)
			e.Sleep(10)
			res.Release()
			finish = append(finish, e.Now())
		})
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
	for i := 0; i < 2; i++ {
		k.Spawn("waiter", func(e *Env) {
			sig.Wait(e)
			woke = append(woke, e.Now())
		})
	}
	k.Spawn("firer", func(e *Env) {
		e.Sleep(5)
		sig.Fire()
	})
	k.Spawn("late", func(e *Env) {
		e.Sleep(9)
		sig.Wait(e) // already fired: returns immediately
		woke = append(woke, e.Now())
	})
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
		k.Spawn("w", func(e *Env) {
			for !ready {
				cond.Wait(e)
			}
			served++
		})
	}
	k.Spawn("n", func(e *Env) {
		e.Sleep(1)
		ready = true
		cond.NotifyAll()
	})
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
		d := Time(i)
		k.Spawn("worker", func(e *Env) {
			e.Sleep(d)
			wg.Done()
		})
	}
	var joined Time = -1
	k.Spawn("joiner", func(e *Env) {
		wg.Wait(e)
		joined = e.Now()
	})
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
		p := p
		k.Spawn(fmt.Sprintf("prod%d", p), func(e *Env) {
			defer wg.Done()
			for i := 0; i < nItems; i++ {
				e.Sleep(Time(e.Rand().Float64()))
				ch.Put(e, fmt.Sprintf("p%d-i%d", p, i))
			}
		})
	}
	k.Spawn("cons", func(e *Env) {
		for {
			v, ok := ch.Get(e)
			if !ok {
				return
			}
			trace = append(trace, fmt.Sprintf("%.6f:%s", float64(e.Now()), v))
			e.Sleep(Time(e.Rand().Float64() * 0.1))
		}
	})
	k.Spawn("closer", func(e *Env) {
		wg.Wait(e)
		ch.Close(e)
	})
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
			k.Spawn("p", func(e *Env) {
				e.Sleep(d)
				fins = append(fins, fin{i, e.Now()})
			})
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
			p := p
			k.Spawn("prod", func(e *Env) {
				defer wg.Done()
				for i := 0; i < items; i++ {
					e.Sleep(Time(e.Rand().Float64()))
					ch.Put(e, [2]int{p, i})
				}
			})
		}
		k.Spawn("cons", func(e *Env) {
			for {
				v, ok := ch.Get(e)
				if !ok {
					return
				}
				got[v[0]] = append(got[v[0]], v[1])
			}
		})
		k.Spawn("closer", func(e *Env) {
			wg.Wait(e)
			ch.Close(e)
		})
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
	k.Spawn("p", func(e *Env) { e.Sleep(1) })
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
	k.Spawn("p", func(e *Env) {
		ch.Close(e)
		defer func() {
			if recover() == nil {
				t.Error("double close did not panic")
			}
		}()
		ch.Close(e)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestChanPutOnClosedPanics(t *testing.T) {
	k := NewKernel(1)
	ch := NewChan[int](k, 1)
	k.Spawn("p", func(e *Env) {
		ch.Close(e)
		defer func() {
			if recover() == nil {
				t.Error("put on closed did not panic")
			}
		}()
		ch.Put(e, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceReleaseIdlePanics(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 1)
	k.Spawn("p", func(e *Env) {
		defer func() {
			if recover() == nil {
				t.Error("release of idle resource did not panic")
			}
		}()
		r.Release()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestResourceUseHelper(t *testing.T) {
	k := NewKernel(1)
	r := NewResource(k, 1)
	ran := false
	k.Spawn("p", func(e *Env) {
		r.Use(e, func() {
			if r.InUse() != 1 {
				t.Error("resource not held inside Use")
			}
			ran = true
		})
		if r.InUse() != 0 {
			t.Error("resource not released after Use")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("Use body did not run")
	}
}

func TestCondNotifyOne(t *testing.T) {
	k := NewKernel(1)
	cond := NewCond(k)
	woken := 0
	for i := 0; i < 3; i++ {
		k.Spawn("w", func(e *Env) {
			cond.Wait(e)
			woken++
		})
	}
	k.Spawn("n", func(e *Env) {
		e.Sleep(1)
		cond.NotifyOne()
		e.Sleep(1)
		if woken != 1 {
			t.Errorf("after NotifyOne: woken = %d", woken)
		}
		cond.NotifyAll()
	})
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

func BenchmarkKernelHandoff(b *testing.B) {
	// Throughput of the core scheduling primitive: one sleep event per
	// iteration, including the goroutine handoff both ways.
	k := NewKernel(1)
	stop := false
	k.Spawn("ticker", func(e *Env) {
		for !stop {
			e.Sleep(1)
		}
	})
	k.Spawn("driver", func(e *Env) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Sleep(1)
		}
		b.StopTimer()
		stop = true
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
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
			i := i
			k.Spawn("p", func(e *Env) {
				ch.Put(e, i)
			})
		}
		var got []int
		k.Spawn("c", func(e *Env) {
			for len(got) < n {
				v, ok := ch.Get(e)
				if !ok {
					return
				}
				got = append(got, v)
				e.Sleep(Time(e.Rand().Float64() * 0.01))
			}
		})
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
		i := i
		k.Spawn("p", func(e *Env) {
			order = append(order, i)
		})
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
	k.Spawn("p", func(e *Env) {
		if e.Name() != "p" || e.Kernel() != k || e.Rand() == nil {
			t.Error("env accessors wrong")
		}
		ch.Put(e, 1)
		if ch.Len() != 1 {
			t.Error("len after put")
		}
		v, _ := ch.Get(e)
		_ = v
		ch.Close(e)
		if !ch.Closed() {
			t.Error("Closed() false after close")
		}
	})
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
	k.Spawn("arrivals", func(e *Env) {
		for e.Now() < horiz {
			e.Sleep(Time(e.Rand().ExpFloat64() / lambda))
			account(e.Now(), +1)
			service := Time(e.Rand().ExpFloat64() / mu)
			e.Spawn("job", func(je *Env) {
				server.Acquire(je)
				je.Sleep(service)
				server.Release()
				account(je.Now(), -1)
			})
		}
	})
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

// TestChanPooledWaitersFIFO: blocking and step getters on one channel, each
// waiting again as soon as it receives, take the values strictly round
// robin in the order they first queued, and so do blocking and step
// putters on a rendezvous channel. Every wait after the first reuses a
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
			if i%2 == 0 {
				k.Spawn(name, func(e *Env) {
					for {
						v, ok := ch.Get(e)
						if !ok {
							return
						}
						got = append(got, fmt.Sprintf("%s:%d", name, v))
					}
				})
				continue
			}
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
		k.Spawn("producer", func(e *Env) {
			for v := 0; v < waiters*rounds; v++ {
				e.Sleep(1)
				ch.Put(e, v)
			}
			e.Sleep(1)
			ch.Close(e)
		})
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
			if i%2 == 0 {
				k.Spawn(name, func(e *Env) {
					for r := 0; r < rounds; r++ {
						ch.Put(e, fmt.Sprintf("%s:%d", name, r))
					}
				})
				continue
			}
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
		k.Spawn("consumer", func(e *Env) {
			for len(got) < waiters*rounds {
				e.Sleep(1)
				v, _ := ch.Get(e)
				got = append(got, v)
			}
		})
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
	k.Spawn("producer", func(e *Env) {
		for v := 0; v < 9; v++ {
			e.Sleep(1)
			ch.Put(e, v)
		}
		e.Sleep(1)
		ch.Close(e)
	})
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
	k.Spawn("waiter", func(e *Env) {
		sig.Wait(e)
		woke = append(woke, e.Now())
		sig.Reset()
		sig.Wait(e)
		woke = append(woke, e.Now())
	})
	k.Spawn("firer", func(e *Env) {
		e.Sleep(2)
		sig.Fire()
		e.Sleep(3)
		sig.Fire()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if want := []Time{2, 5}; !reflect.DeepEqual(woke, want) {
		t.Fatalf("woke = %v, want %v", woke, want)
	}
}
