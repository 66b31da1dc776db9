package sim

// Benchmarks and allocation-regression gates for the kernel hot path. The
// event loop runs millions of times per experiment sweep, so the event
// queue (same-instant lane, delay lanes and timed heap), the pooled process
// records and the zero-delay trampoline each get a benchmark plus two hard
// ceilings: an absolute allocs-per-
// workload budget (catches one-time setup regressions) and a per-event
// budget (catches anything creeping into the loop itself — the contract is
// well under 2 allocations per event, and in steady state effectively 0).

import "testing"

// eventLoopStepWorkload runs procs processes that each wait `sleeps`
// times: each dispatch is a queue pop plus a direct call.
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

// spawnChurnStepWorkload spawns n short-lived processes strictly in
// sequence, the pattern message- and transfer-handlers follow; with record
// pooling only the first allocates a record.
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

// messagePathStepWorkload models the runtime's per-message pattern: a
// driver spawns one short-lived "send" process per message, which acquires
// an exclusive NIC-like resource, holds it for the wire time, releases it
// and delivers a reply through a channel the driver is waiting on — the
// spawn/acquire/put shape of the sender reply path and the requester
// fetch. The per-message chain is built from hoisted steps, so steady
// state allocates nothing.
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

// zeroAfterStepWorkload is a single process yielding n times with nothing
// else scheduled: After(0, ...) with an empty queue trampolines inline — no
// queue traffic, no switch of any kind.
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

// The workloads below run the same event patterns with each process in the
// record form the runtime's long-lived processes take (the worker, the
// pacer, the requester): its state in a struct and its steps bound once to
// method values, so a wait re-arms a step that already exists.

// sleeper waits d, left times over.
type sleeper struct {
	left int
	d    Time
	step Step // run, bound once
}

func newSleeper(left int, d Time) *sleeper {
	s := &sleeper{left: left, d: d}
	s.step = s.run
	return s
}

func (s *sleeper) run(e *Env) Cont {
	if s.left == 0 {
		return Done()
	}
	s.left--
	return After(s.d, s.step)
}

// eventLoopWorkload is eventLoopStepWorkload with record processes.
func eventLoopWorkload(procs, sleeps int) {
	k := NewKernel(1)
	for p := 0; p < procs; p++ {
		k.SpawnStep("worker", newSleeper(sleeps, Millisecond).step)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// zeroSleepWorkload is zeroAfterStepWorkload with a record process.
func zeroSleepWorkload(n int) {
	k := NewKernel(1)
	k.SpawnStep("spinner", newSleeper(n, 0).step)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// churner spawns a short-lived process every millisecond, left times
// over; both steps are bound once.
type churner struct {
	left        int
	step, short Step
}

func (c *churner) run(e *Env) Cont {
	if c.left == 0 {
		return Done()
	}
	c.left--
	e.SpawnStep("short", c.short)
	return After(Millisecond, c.step)
}

func shortLived(e *Env) Cont { return After(Microsecond, DoneStep) }

// spawnChurnWorkload is spawnChurnStepWorkload with a record driver.
func spawnChurnWorkload(n int) {
	k := NewKernel(1)
	c := &churner{left: n, short: shortLived}
	c.step = c.run
	k.SpawnStep("driver", c.step)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// msgPath is messagePathStepWorkload's state as one record, every step of
// the driver and of the per-message send chain bound once.
type msgPath struct {
	nic                        *Resource
	replies                    *Chan[int]
	left                       int
	send, hold, finish, driver Step
	onReply                    func(e *Env, v int, ok bool) Cont
}

func (m *msgPath) sendStep(e *Env) Cont { return m.nic.AcquireThen(e, m.hold) }

func (m *msgPath) holdStep(e *Env) Cont { return After(10*Microsecond, m.finish) }

func (m *msgPath) finishStep(e *Env) Cont {
	m.nic.Release()
	return m.replies.PutThen(e, 1, DoneStep)
}

func (m *msgPath) driverStep(e *Env) Cont {
	if m.left == 0 {
		return Done()
	}
	m.left--
	e.SpawnStep("send", m.send)
	return m.replies.GetThen(e, m.onReply)
}

func (m *msgPath) reply(e *Env, v int, ok bool) Cont {
	if !ok {
		panic("sim: reply channel closed early")
	}
	return m.driverStep(e)
}

// messagePathWorkload is messagePathStepWorkload with record processes.
func messagePathWorkload(n int) {
	k := NewKernel(1)
	m := &msgPath{nic: NewResource(k, 1), replies: NewChan[int](k, 1), left: n}
	m.send, m.hold, m.finish, m.driver, m.onReply = m.sendStep, m.holdStep, m.finishStep, m.driverStep, m.reply
	k.SpawnStep("driver", m.driver)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// delayMixWorkload keeps procs processes cycling through rounds wakeups
// each; process i's n-th wakeup is delay(i, n) after the last, n starting
// at i.
func delayMixWorkload(procs, rounds int, delay func(i, n int) Time) KernelStats {
	k := NewKernel(1)
	for i := 0; i < procs; i++ {
		n := i
		left := rounds
		var next Step
		next = func(e *Env) Cont {
			if left == 0 {
				return Done()
			}
			left--
			n++
			return After(delay(i, n), next)
		}
		k.SpawnStep("worker", next)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return k.Stats()
}

// deepQueueWorkload keeps procs processes cycling through three zero-delay
// wakeups and two timed wakeups of 1-8 ms each, rounds wakeups per process.
// About procs timers stay pending, and a dozen processes share each
// instant, so the zero-delay wakeups find another event due and go to the
// lane: the mix of the demand protocol's request/empty-reply rounds, where
// about 60% of pushes are at the current instant and the timed backlog
// runs about 100 deep. Eight delays share four delay lanes, so about half
// of the timed wakeups go to the heap.
func deepQueueWorkload(procs, rounds int) KernelStats {
	return delayMixWorkload(procs, rounds, func(_, n int) Time {
		if n%5 < 3 {
			return 0
		}
		return Time(1+n%8) * Millisecond
	})
}

// fixedDelayWorkload is the demand protocol's mix of delays: three in five
// wakeups at the current instant and, of the timed ones, 15 in 16 one of
// two constants, the 100 µs network latency and the 0.547 µs wire time of
// a control message. Every 16th process times one-off delays near a tile's
// 25 µs compute time instead, no two alike. The constants keep their delay
// lanes, so only the one-off wakeups go to the heap, and the other
// processes stay on a lattice of instants that many of them share.
func fixedDelayWorkload(procs, rounds int) KernelStats {
	oneOff := 0
	return delayMixWorkload(procs, rounds, func(i, n int) Time {
		switch {
		case n%5 < 3:
			return 0
		case i%16 == 0:
			oneOff++
			return 25*Microsecond + Time(oneOff)*1e-12
		case n%5 == 3:
			return 100 * Microsecond
		default:
			return 0.547 * Microsecond
		}
	})
}

func BenchmarkEventLoopStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		eventLoopStepWorkload(4, 1000)
	}
}

func BenchmarkEventLoopDeepQueueStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		deepQueueWorkload(100, 300)
	}
}

// BenchmarkEventLoopFixedDelaysStep reports the fixed-delay mix's cost per
// dispatched event.
func BenchmarkEventLoopFixedDelaysStep(b *testing.B) {
	b.ReportAllocs()
	var events uint64
	for i := 0; i < b.N; i++ {
		events += fixedDelayWorkload(300, 200).Dispatched
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(events), "ns/event")
}

func BenchmarkSpawnChurnStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		spawnChurnStepWorkload(1000)
	}
}

func BenchmarkMessagePathStep(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		messagePathStepWorkload(1000)
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

// TestEventLoopAllocs pins the cost of 4000 scheduled events when each
// process is a record: setup only, with no allocation per wait.
func TestEventLoopAllocs(t *testing.T) {
	allocCeiling(t, "event loop (4 record procs x 1000 sleeps)", 50, 4000, func() {
		eventLoopWorkload(4, 1000)
	})
}

// TestEventLoopStepAllocs pins the cost of 4000 scheduled events. The
// budget covers kernel setup (records, closures, queue growth) only; the
// container/heap implementation the queue replaced boxed one interface
// value per push, i.e. >= 4000 allocations here.
func TestEventLoopStepAllocs(t *testing.T) {
	allocCeiling(t, "step event loop (4 procs x 1000 steps)", 50, 4000, func() {
		eventLoopStepWorkload(4, 1000)
	})
}

// TestEventLoopDeepQueueAllocs pins the deep-queue mix: its shape (a heap
// about 100 deep, most pushes on the lane), a setup-only budget (records
// and closures of 100 processes), and no allocation per event in steady
// state — ten times the rounds costs not one allocation more, so the lane
// and the heap reuse their arrays.
func TestEventLoopDeepQueueAllocs(t *testing.T) {
	st := deepQueueWorkload(100, 300)
	share := float64(st.LanePushes) / float64(st.LanePushes+st.HeapPushes)
	if st.HeapHighWater < 90 || share < 0.5 || share > 0.7 {
		t.Errorf("heap high water %d, lane share %.2f; want a ~100-deep heap and ~60%% lane pushes",
			st.HeapHighWater, share)
	}
	name := "deep queue (100 procs x 300 wakeups)"
	allocCeiling(t, name, 600, 30000, func() { deepQueueWorkload(100, 300) })
	short := testing.AllocsPerRun(5, func() { deepQueueWorkload(100, 300) })
	long := testing.AllocsPerRun(5, func() { deepQueueWorkload(100, 3000) })
	if long > short {
		t.Errorf("%s: %.0f allocs at 10x the rounds vs %.0f: the loop allocates per event", name, long, short)
	}
}

// TestEventLoopFixedDelaysAllocs pins the fixed-delay mix: at least 90% of
// its timed wakeups skip the heap, and ten times the rounds costs not one
// allocation more, so the delay lanes reuse their arrays across rebinding.
func TestEventLoopFixedDelaysAllocs(t *testing.T) {
	st := fixedDelayWorkload(300, 200)
	if bypass := float64(st.DelayLanePushes) / float64(st.HeapPushes); bypass < 0.9 {
		t.Errorf("%.2f of timed wakeups on delay lanes, want >= 0.9 (%+v)", bypass, st)
	}
	if raceEnabled {
		return
	}
	short := testing.AllocsPerRun(3, func() { fixedDelayWorkload(300, 200) })
	long := testing.AllocsPerRun(3, func() { fixedDelayWorkload(300, 2000) })
	if long > short {
		t.Errorf("%.0f allocs at 10x the rounds vs %.0f: the loop allocates per event", long, short)
	}
}

// TestSpawnPoolingAllocs pins 1000 sequential short-lived spawns of one
// bound step from a record driver: the whole run reuses one pooled record.
func TestSpawnPoolingAllocs(t *testing.T) {
	allocCeiling(t, "spawn churn (1000 short-lived procs)", 40, 3000, func() {
		spawnChurnWorkload(1000)
	})
}

// TestSpawnPoolingStepAllocs pins record pooling: 1000 spawned-and-finished
// processes reuse one pooled record; without pooling each spawn would
// allocate a record.
func TestSpawnPoolingStepAllocs(t *testing.T) {
	allocCeiling(t, "step spawn churn (1000 short-lived procs)", 40, 3000, func() {
		spawnChurnStepWorkload(1000)
	})
}

// TestMessagePathAllocs pins the message path with record processes: 1000
// spawn → acquire → hold → release → reply rounds whose steps were all
// bound before the first, so the budget is setup only.
func TestMessagePathAllocs(t *testing.T) {
	allocCeiling(t, "message path (1000 record rounds)", 100, 3000, func() {
		messagePathWorkload(1000)
	})
}

// TestMessagePathStepAllocs pins the message path: 1000 sequential spawn →
// acquire → hold → release → reply rounds, every per-message process a
// step chain. Record pooling reuses one record and the wait queues recycle
// their backing arrays. The reply wait
// parks on a getter record from the channel's free list whose resume step
// was bound when the record was made, so GetThen allocates nothing per
// round and the budget is setup only.
func TestMessagePathStepAllocs(t *testing.T) {
	allocCeiling(t, "step message path (1000 rounds)", 100, 3000, func() {
		messagePathStepWorkload(1000)
	})
}

// TestZeroSleepAllocs pins the zero-delay path for a record process: 10000
// yields with an empty event queue must not touch the queue at all.
func TestZeroSleepAllocs(t *testing.T) {
	allocCeiling(t, "zero-delay wait, record proc (10000 yields)", 25, 10000, func() {
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

// reusedSyncWorkload runs rounds of one Signal and one WaitGroup, both
// reused: each round resets the signal, a process fires it and, a tick
// later, marks the group done, and the waiting process waits on each in
// turn.
func reusedSyncWorkload(rounds int) {
	k := NewKernel(1)
	sig, wg := NewSignal(k), NewWaitGroup(k)
	done := func(*Env) Cont { wg.Done(); return Done() }
	fire := func(*Env) Cont { sig.Fire(); return After(1, done) }
	var round, fired Step
	round = func(e *Env) Cont {
		if rounds == 0 {
			return Done()
		}
		rounds--
		sig.Reset()
		wg.Add(1)
		e.SpawnStep("fire", fire)
		return sig.WaitThen(e, fired)
	}
	fired = func(e *Env) Cont { return wg.WaitThen(e, round) }
	k.SpawnStep("waiter", round)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// TestReusedSyncAllocs: a reused Signal and WaitGroup keep their waiter
// arrays, so ten times the rounds costs not one allocation more.
func TestReusedSyncAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation thresholds are not meaningful under -race")
	}
	short := testing.AllocsPerRun(5, func() { reusedSyncWorkload(100) })
	long := testing.AllocsPerRun(5, func() { reusedSyncWorkload(1000) })
	if long > short {
		t.Errorf("%.0f allocs at 10x the rounds vs %.0f: a reused Signal or WaitGroup allocates per wait", long, short)
	}
}
