package sim

// Benchmarks and allocation-regression gates for the kernel hot path. The
// event loop runs millions of times per experiment sweep, so the event
// queue (same-instant lane and timed heap), the pooled process records and
// the zero-duration fast paths
// each get a benchmark plus two hard ceilings: an absolute allocs-per-
// workload budget (catches one-time setup regressions) and a per-event
// budget (catches anything creeping into the loop itself — the contract is
// well under 2 allocations per event, and in steady state effectively 0).

import (
	"fmt"
	"testing"
)

// eventLoopWorkload runs procs blocking processes that each sleep `sleeps`
// times, exercising the heap push/pop and coroutine hand-off machinery.
func eventLoopWorkload(procs, sleeps int) {
	k := NewKernel(1)
	for p := 0; p < procs; p++ {
		k.Spawn("worker", func(e *Env) {
			for s := 0; s < sleeps; s++ {
				e.Sleep(Millisecond)
			}
		})
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// eventLoopStepWorkload is the same event pattern as eventLoopWorkload but
// with continuation processes: each dispatch is a heap pop plus a direct
// call, no stack switch.
func eventLoopStepWorkload(procs, sleeps int) {
	k := NewKernel(1)
	for p := 0; p < procs; p++ {
		left := sleeps
		var step Step
		step = func(e *Env) Cont {
			if left == 0 {
				return Done()
			}
			left--
			return After(Millisecond, step)
		}
		k.SpawnStep("worker", step)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// spawnChurnWorkload spawns n short-lived blocking processes strictly in
// sequence, the pattern message- and transfer-handlers follow; with record
// pooling only the first allocates a record and coroutine.
func spawnChurnWorkload(n int) {
	k := NewKernel(1)
	k.Spawn("driver", func(e *Env) {
		for i := 0; i < n; i++ {
			e.Spawn("short", func(e *Env) { e.Sleep(Microsecond) })
			e.Sleep(Millisecond)
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// spawnChurnStepWorkload is spawnChurnWorkload with continuation processes
// on both sides: the cheapest way to run per-message activities.
func spawnChurnStepWorkload(n int) {
	k := NewKernel(1)
	short := func(e *Env) Cont {
		return After(Microsecond, func(e *Env) Cont { return Done() })
	}
	left := n
	var driver Step
	driver = func(e *Env) Cont {
		if left == 0 {
			return Done()
		}
		left--
		e.SpawnStep("short", short)
		return After(Millisecond, driver)
	}
	k.SpawnStep("driver", driver)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// messagePathWorkload models the runtime's migrated per-message pattern
// with blocking processes: a driver spawns one short-lived "send" process
// per message, which acquires an exclusive NIC-like resource, holds it for
// the wire time, releases it and delivers a reply through a channel the
// driver is waiting on — the spawn/acquire/put shape of the sender reply
// path and the requester fetch.
func messagePathWorkload(n int) {
	k := NewKernel(1)
	nic := NewResource(k, 1)
	replies := NewChan[int](k, 1)
	send := func(e *Env) {
		nic.Acquire(e)
		e.Sleep(10 * Microsecond)
		nic.Release()
		replies.Put(e, 1)
	}
	k.Spawn("driver", func(e *Env) {
		for i := 0; i < n; i++ {
			e.Spawn("send", send)
			if _, ok := replies.Get(e); !ok {
				panic("sim: reply channel closed early")
			}
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// messagePathStepWorkload is messagePathWorkload with continuation
// processes on both sides: the post-migration shape of the message path,
// with the per-message chain built from hoisted steps so steady state costs
// only the channel parking record.
func messagePathStepWorkload(n int) {
	k := NewKernel(1)
	nic := NewResource(k, 1)
	replies := NewChan[int](k, 1)
	finish := func(e *Env) Cont {
		nic.Release()
		return replies.PutThen(e, 1, DoneStep)
	}
	hold := func(e *Env) Cont { return After(10*Microsecond, finish) }
	send := func(e *Env) Cont { return nic.AcquireThen(e, hold) }
	left := n
	var driver Step
	var onReply func(e *Env, v int, ok bool) Cont
	driver = func(e *Env) Cont {
		if left == 0 {
			return Done()
		}
		left--
		e.SpawnStep("send", send)
		return replies.GetThen(e, onReply)
	}
	onReply = func(e *Env, v int, ok bool) Cont {
		if !ok {
			panic("sim: reply channel closed early")
		}
		return driver(e)
	}
	k.SpawnStep("driver", driver)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// zeroSleepWorkload is a single blocking process yielding n times with
// nothing else scheduled, so every Sleep(0) takes the no-reschedule fast
// path (one coroutine switch out and back per yield, no heap traffic).
func zeroSleepWorkload(n int) {
	k := NewKernel(1)
	k.Spawn("spinner", func(e *Env) {
		for i := 0; i < n; i++ {
			e.Sleep(0)
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// zeroAfterStepWorkload is the continuation analogue of zeroSleepWorkload:
// After(0, ...) with an empty queue trampolines inline — no heap traffic,
// no switch of any kind.
func zeroAfterStepWorkload(n int) {
	k := NewKernel(1)
	left := n
	var spin Step
	spin = func(e *Env) Cont {
		if left == 0 {
			return Done()
		}
		left--
		return After(0, spin)
	}
	k.SpawnStep("spinner", spin)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// deepQueueWorkload keeps procs processes cycling through three zero-delay
// wakeups and two timed wakeups of 1-8 ms each, rounds wakeups per process,
// in the blocking or (step) continuation flavour. About procs timers stay
// pending, and a dozen processes share each instant, so the zero-delay
// wakeups find another event due and go to the lane: the mix of the demand
// protocol's request/empty-reply rounds, where about 60% of pushes are at
// the current instant and the heap runs about 100 deep.
func deepQueueWorkload(procs, rounds int, step bool) KernelStats {
	k := NewKernel(1)
	delay := func(n int) Time {
		if n%5 < 3 {
			return 0
		}
		return Time(1+n%8) * Millisecond
	}
	for i := 0; i < procs; i++ {
		n := i
		if !step {
			k.Spawn("worker", func(e *Env) {
				for r := 0; r < rounds; r++ {
					n++
					e.Sleep(delay(n))
				}
			})
			continue
		}
		left := rounds
		var next Step
		next = func(e *Env) Cont {
			if left == 0 {
				return Done()
			}
			left--
			n++
			return After(delay(n), next)
		}
		k.SpawnStep("worker", next)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return k.Stats()
}

func BenchmarkEventLoop(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eventLoopWorkload(4, 1000)
	}
}

func BenchmarkEventLoopStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eventLoopStepWorkload(4, 1000)
	}
}

func BenchmarkEventLoopDeepQueue(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deepQueueWorkload(100, 300, false)
	}
}

func BenchmarkEventLoopDeepQueueStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deepQueueWorkload(100, 300, true)
	}
}

func BenchmarkSpawnChurn(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spawnChurnWorkload(1000)
	}
}

func BenchmarkSpawnChurnStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spawnChurnStepWorkload(1000)
	}
}

func BenchmarkMessagePath(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		messagePathWorkload(1000)
	}
}

func BenchmarkMessagePathStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		messagePathStepWorkload(1000)
	}
}

func BenchmarkZeroSleep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		zeroSleepWorkload(10000)
	}
}

func BenchmarkZeroAfterStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		zeroAfterStepWorkload(10000)
	}
}

// allocCeiling asserts the workload stays under both a fixed absolute
// allocation budget and a per-event budget of 2 allocations.
func allocCeiling(t *testing.T, name string, limit float64, events int, fn func()) {
	t.Helper()
	if raceEnabled {
		t.Skip("allocation thresholds are not meaningful under -race")
	}
	got := testing.AllocsPerRun(10, fn)
	if got > limit {
		t.Errorf("%s: %.0f allocs per run, want <= %.0f", name, got, limit)
	}
	if perEvent := got / float64(events); perEvent > 2 {
		t.Errorf("%s: %.3f allocs per event, want <= 2", name, perEvent)
	}
}

// TestEventLoopAllocs pins the cost of 4000 scheduled events. The budget
// covers kernel setup (records, coroutines, heap growth) only — about 0.02
// allocations per event; the container/heap implementation this replaced
// boxed one interface value per push, i.e. >= 4000 allocations here.
func TestEventLoopAllocs(t *testing.T) {
	allocCeiling(t, "event loop (4 procs x 1000 sleeps)", 110, 4000, func() {
		eventLoopWorkload(4, 1000)
	})
}

// TestEventLoopStepAllocs pins the continuation flavour of the same
// workload: no coroutines at all, so the budget is tighter still.
func TestEventLoopStepAllocs(t *testing.T) {
	allocCeiling(t, "step event loop (4 procs x 1000 steps)", 50, 4000, func() {
		eventLoopStepWorkload(4, 1000)
	})
}

// TestEventLoopDeepQueueAllocs pins the deep-queue mix in both flavours:
// its shape (a heap about 100 deep, most pushes on the lane), a setup-only
// budget, and no allocation per event in steady state — ten times the
// rounds costs not one allocation more, so the lane and the heap reuse
// their arrays.
func TestEventLoopDeepQueueAllocs(t *testing.T) {
	for _, tc := range []struct {
		step  bool
		limit float64 // records, coroutines and closures of 100 processes
	}{{false, 1700}, {true, 600}} {
		step := tc.step
		st := deepQueueWorkload(100, 300, step)
		share := float64(st.LanePushes) / float64(st.LanePushes+st.HeapPushes)
		if st.HeapHighWater < 90 || share < 0.5 || share > 0.7 {
			t.Errorf("step=%v: heap high water %d, lane share %.2f; want a ~100-deep heap and ~60%% lane pushes",
				step, st.HeapHighWater, share)
		}
		name := fmt.Sprintf("deep queue (100 procs x 300 wakeups, step=%v)", step)
		allocCeiling(t, name, tc.limit, 30000, func() { deepQueueWorkload(100, 300, step) })
		if raceEnabled {
			continue
		}
		short := testing.AllocsPerRun(5, func() { deepQueueWorkload(100, 300, step) })
		long := testing.AllocsPerRun(5, func() { deepQueueWorkload(100, 3000, step) })
		if long > short {
			t.Errorf("%s: %.0f allocs at 10x the rounds vs %.0f: the loop allocates per event", name, long, short)
		}
	}
}

// TestSpawnPoolingAllocs pins the cost of 1000 sequential short-lived
// spawns. Without record pooling each spawn allocates a record, a coroutine
// and closures (>= 3000 allocations); with pooling the whole run reuses one
// record.
func TestSpawnPoolingAllocs(t *testing.T) {
	allocCeiling(t, "spawn churn (1000 short-lived procs)", 60, 3000, func() {
		spawnChurnWorkload(1000)
	})
}

// TestSpawnPoolingStepAllocs pins continuation-process pooling: 1000
// spawned-and-finished step processes reuse one pooled record.
func TestSpawnPoolingStepAllocs(t *testing.T) {
	allocCeiling(t, "step spawn churn (1000 short-lived procs)", 40, 3000, func() {
		spawnChurnStepWorkload(1000)
	})
}

// TestMessagePathAllocs pins the blocking message path: 1000 sequential
// spawn → acquire → hold → release → reply rounds. Record pooling reuses
// one coroutine and the wait queues recycle their backing arrays, so the
// only per-message cost left is the channel parking record of the reply
// wait (~1 allocation per message).
func TestMessagePathAllocs(t *testing.T) {
	allocCeiling(t, "message path (1000 blocking rounds)", 1200, 3000, func() {
		messagePathWorkload(1000)
	})
}

// TestMessagePathStepAllocs pins the continuation message path: the same
// 1000 rounds with every per-message process a step chain. GetThen pays one
// extra allocation over the blocking Get (the continuation wrapper holding
// the received value) but no coroutine switches, which is why this flavour
// runs several times faster despite the slightly higher count.
func TestMessagePathStepAllocs(t *testing.T) {
	allocCeiling(t, "step message path (1000 rounds)", 2200, 3000, func() {
		messagePathStepWorkload(1000)
	})
}

// TestZeroSleepAllocs pins the fast path: 10000 yields with an empty event
// queue must not touch the heap at all.
func TestZeroSleepAllocs(t *testing.T) {
	allocCeiling(t, "zero-duration sleep fast path (10000 yields)", 35, 10000, func() {
		zeroSleepWorkload(10000)
	})
}

// TestZeroAfterStepAllocs pins the inline trampoline: 10000 zero-delay
// continuations with an empty event queue.
func TestZeroAfterStepAllocs(t *testing.T) {
	allocCeiling(t, "zero-delay step trampoline (10000 steps)", 25, 10000, func() {
		zeroAfterStepWorkload(10000)
	})
}
