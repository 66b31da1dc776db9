// Package sim provides a deterministic, virtual-time discrete-event
// simulation kernel in the style of SimPy.
//
// The kernel is continuation-based: a single event loop owns virtual time
// and dispatches resumable processes directly, with no per-event channel
// rendezvous and no goroutine parking through the Go scheduler. Processes
// come in two flavours that interoperate freely on the same kernel and the
// same wait queues:
//
//   - Blocking processes (Spawn) are ordinary functions with signature
//     func(*Env) that call Sleep, Chan.Put/Get, Resource.Acquire and the
//     other blocking primitives. They run on runtime coroutines (iter.Pull):
//     a blocking call suspends the process with a direct stack switch and
//     the event loop resumes it the same way. This keeps the classic
//     SimPy-style API source-compatible while costing a fraction of the
//     goroutine/channel hand-off it replaces.
//
//   - Continuation processes (SpawnStep) are explicit state machines: a
//     Step function runs without blocking and returns a Cont directive
//     (Done, After, Blocked) naming the next step. The event loop invokes
//     steps inline — a dispatch is a queue pop plus a function call — so
//     hot-path processes pay no stack switch at all. The *Then variants of
//     the synchronization primitives (Chan.GetThen, Resource.AcquireThen,
//     ...) arm the continuation and share FIFO wait queues with blocking
//     callers, so wakeup ordering is identical across flavours.
//
// Determinism is unchanged from the goroutine kernel this replaced (golden
// scenario traces under testdata pin its behaviour): exactly one process
// runs at any instant, same-timestamp events dispatch in schedule order,
// and a fixed seed yields an identical execution regardless of GOMAXPROCS.
// The kernel runs until no scheduled events remain (or an explicit horizon
// is reached); processes still blocked at that point are killed cleanly —
// in spawn order, unwinding blocking processes' defers — so no coroutine
// outlives Run.
//
// The event loop is the hot path of every experiment sweep, so it avoids
// allocation and GC work. The event queue is two parts merged on pop: a
// FIFO ring for wakeups at the current instant (most wakeups: zero-delay
// yields, channel and signal handoffs, spawns) and a concrete typed binary
// heap for later ones (no container/heap interface boxing). Both reuse
// their arrays, and their event records hold no pointers — a process is
// named by its index in the kernel's record table — so moving events takes
// no GC write barrier and the collector never scans the queue. Completed
// process records (and, for blocking processes, their coroutines) are
// pooled for reuse by later Spawns, and a zero-duration Sleep or After
// returns immediately when no other event is pending at the current
// instant.
package sim

import (
	"fmt"
	"iter"
	"math"
	"math/rand"
	"sort"
)

// Time is a point in virtual time, in seconds. Durations are also expressed
// as Time; the zero value is the simulation epoch.
type Time float64

// Seconds returns t as a float64 number of seconds.
func (t Time) Seconds() float64 { return float64(t) }

// Milliseconds returns t as a float64 number of milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) * 1e3 }

// Microsecond, Millisecond and Second are convenience duration units.
const (
	Microsecond Time = 1e-6
	Millisecond Time = 1e-3
	Second      Time = 1
)

type procState int

const (
	stateNew procState = iota
	stateRunnable
	stateRunning
	stateParked
	stateDone
	// statePooled marks a finished process whose record (and coroutine, for
	// blocking processes) is parked in the kernel's free list, awaiting
	// reuse by a future Spawn.
	statePooled
)

// proc is the kernel-side record of one simulated process. Records are
// reused across process lifetimes (see Kernel.freeCoro/freeStep), so every
// mutable field is reset by Spawn/SpawnStep.
type proc struct {
	id     int
	slot   int // index in Kernel.procs, named by this record's wakeups
	name   string
	state  procState
	killed bool
	env    Env

	// Blocking (coroutine) processes only. resume switches into the
	// coroutine; yield (captured by the coroutine body on first entry)
	// switches back out. fn is the current incarnation's body.
	fn     func(*Env)
	resume func() (struct{}, bool)
	yield  func(struct{}) bool

	// Continuation processes only: the next step to run when dispatched.
	// Blocking primitives' *Then variants re-point this at the armed
	// continuation while the process waits.
	step Step
}

// killSentinel is the panic value used to unwind killed blocking processes.
type killSentinel struct{}

// procPanic wraps a panic raised inside a simulated process so the kernel
// can report which process failed.
type procPanic struct {
	name  string
	value any
}

func (p procPanic) Error() string {
	return fmt.Sprintf("sim: process %q panicked: %v", p.name, p.value)
}

// event is one scheduled wakeup. It holds no pointers: slot is the woken
// record's index in Kernel.procs, which is stable because records are
// appended there once and then pooled, never removed. So the queue's
// backing arrays take no GC write barrier when a sift swaps two events,
// and the collector never scans them.
type event struct {
	at   Time
	seq  uint64
	slot int
	// id is the proc incarnation the wakeup belongs to. Process records are
	// pooled and reused (with a fresh id per Spawn), so a wakeup is stale —
	// and must be dropped — unless the record still runs the same
	// incarnation.
	id int
}

// before reports whether e must pop before f.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// eventHeap is a binary min-heap ordered by (at, seq), holding the wakeups
// scheduled later than the current instant. It is a concrete implementation
// rather than a container/heap adapter so Push/Pop move event values
// directly, with no interface boxing and no per-event allocation.
type eventHeap []event

func (h eventHeap) up(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

func (h eventHeap) down(i int) {
	n := len(h)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		min := l
		if r := l + 1; r < n && h[r].before(&h[l]) {
			min = r
		}
		if !h[min].before(&h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

func (h *eventHeap) pushEvent(e event) {
	*h = append(*h, e)
	h.up(len(*h) - 1)
}

// popMin removes the top event; read it first as (*h)[0].
func (h *eventHeap) popMin() {
	s := *h
	n := len(s) - 1
	s[0] = s[n]
	// Reslicing *h onto itself stores only the new length, not the array
	// pointer, so it takes no write barrier.
	*h = (*h)[:n]
	if n > 1 {
		s[:n].down(0)
	}
}

// eventLane is the FIFO of wakeups scheduled at the current instant: a
// ring over a power-of-two array that is reused, not reallocated, once it
// has grown to the deepest same-instant burst. Every lane entry has
// at == now and a larger seq than anything queued before it, so the lane
// is already in (at, seq) order, and merging its head with the heap's top
// yields exactly the order a single heap would. The lane is always empty
// when now advances: its entries sort before any heap entry later than now.
type eventLane struct {
	buf  []event
	head int
	n    int
}

func (l *eventLane) push(e event) {
	if l.n == len(l.buf) {
		buf := make([]event, max(16, 2*len(l.buf)))
		m := copy(buf, l.buf[l.head:])
		copy(buf[m:], l.buf[:l.head])
		l.buf, l.head = buf, 0
	}
	l.buf[(l.head+l.n)&(len(l.buf)-1)] = e
	l.n++
}

// front returns the oldest entry; the lane must be non-empty.
func (l *eventLane) front() *event { return &l.buf[l.head] }

func (l *eventLane) pop() {
	l.head = (l.head + 1) & (len(l.buf) - 1)
	l.n--
}

// KernelStats are the kernel's self-telemetry counters, read with
// Kernel.Stats. Every wakeup is either a lane push or a heap push; it is
// later either dispatched, dropped as stale, or still queued (or killed at
// shutdown).
type KernelStats struct {
	// Dispatched counts wakeups that resumed a live process.
	Dispatched uint64
	// LanePushes counts wakeups scheduled at the current instant, which go
	// to the same-instant FIFO lane.
	LanePushes uint64
	// HeapPushes counts wakeups scheduled later than the current instant,
	// which go to the timed heap.
	HeapPushes uint64
	// HeapHighWater is the deepest the timed heap has been.
	HeapHighWater int
	// StaleDropped counts wakeups dropped because the incarnation they were
	// scheduled for had finished or been killed.
	StaleDropped uint64
}

// Kernel is a discrete-event simulation instance. Create one with NewKernel,
// spawn processes with Spawn or SpawnStep, then call Run from the goroutine
// that created it. A Kernel must not be reused after Run returns.
type Kernel struct {
	now      Time
	seq      uint64
	events   eventHeap // wakeups later than now
	lane     eventLane // wakeups at now, in schedule order
	stats    KernelStats
	procs    []*proc // every record ever created; an event's slot indexes it
	freeCoro []*proc // pooled blocking-process records (coroutine parked)
	freeStep []*proc // pooled continuation-process records
	idgen    int
	failure  error
	rng      *rand.Rand
	running  bool
	finished bool // set by AdvanceTo once the queue drained and shutdown ran
}

// NewKernel returns a kernel whose processes draw randomness from the given
// seed. The same seed always yields an identical execution.
func NewKernel(seed int64) *Kernel {
	return &Kernel{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source. It must only be
// used from simulated processes or between Run calls, never concurrently.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Spawn registers a new blocking process. It may be called before Run or
// from inside a running process (usually via Env.Spawn). The process starts
// at the current virtual time, after previously scheduled same-time events.
//
// Finished process records (and their coroutines) are reused, so workloads
// that spawn one short-lived process per message or transfer do not pay a
// record and coroutine allocation each time.
func (k *Kernel) Spawn(name string, fn func(*Env)) {
	var p *proc
	if n := len(k.freeCoro); n > 0 {
		p = k.freeCoro[n-1]
		k.freeCoro[n-1] = nil
		k.freeCoro = k.freeCoro[:n-1]
		p.name = name
		p.state = stateNew
		p.killed = false
	} else {
		p = k.newCoroProc(name)
		k.addProc(p)
	}
	// Fresh id even on reuse: ids stay monotonic so the deterministic
	// shutdown kill order reflects spawn order.
	p.id = k.idgen
	k.idgen++
	p.fn = fn
	k.schedule(k.now, p)
}

// addProc registers a new record. Its index in k.procs is the slot its
// wakeups name it by; records are pooled, never removed, so it never moves.
func (k *Kernel) addProc(p *proc) {
	p.slot = len(k.procs)
	k.procs = append(k.procs, p)
}

// Stats returns the kernel's self-telemetry counters so far.
func (k *Kernel) Stats() KernelStats { return k.stats }

// newCoroProc creates a process record backed by a fresh coroutine and runs
// the coroutine to its first suspension point, so the first dispatch resumes
// straight into the incarnation body.
func (k *Kernel) newCoroProc(name string) *proc {
	p := &proc{state: stateNew, name: name}
	p.env = Env{k: k, p: p}
	p.resume, _ = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		// Each loop iteration serves one incarnation of this record. The
		// leading yield doubles as the pool wait: between incarnations the
		// record sits in freeCoro with the coroutine suspended here.
		for {
			if !yield(struct{}{}) {
				return
			}
			if p.killed {
				if p.state == statePooled {
					// Shutdown of an idle pooled worker: no incarnation is
					// live, so there is no state to unwind.
					return
				}
				// Killed before the incarnation first ran: unwind as if the
				// body had been killed at its first instruction.
				p.state = stateDone
				p.fn = nil
				return
			}
			if !k.runBody(p) {
				return
			}
		}
	})
	p.resume() // prime: run the prologue up to the pool-wait yield
	return p
}

// runBody executes the current incarnation and reports whether the record
// was returned to the pool (false means the coroutine must end: the
// incarnation was killed or panicked, which only happens during shutdown
// or failure unwinding).
func (k *Kernel) runBody(p *proc) (pooled bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isKill := r.(killSentinel); !isKill {
				if k.failure == nil {
					k.failure = procPanic{name: p.name, value: r}
				}
			}
			pooled = false
			p.state = stateDone
		} else {
			// Normal completion: pool the record for the next Spawn. This
			// runs inside the coroutine while the event loop is blocked in
			// dispatch, so touching the free list is single-threaded.
			p.state = statePooled
			k.freeCoro = append(k.freeCoro, p)
			pooled = true
		}
		p.fn = nil
	}()
	p.state = stateRunning
	p.fn(&p.env)
	return
}

// schedule enqueues a wakeup for p at time t; a time before now means now.
// A NaN or +Inf time panics: it has no place in the (at, seq) order, so it
// can only come from a bug in the caller, and the panic fails the run
// through the calling process.
func (k *Kernel) schedule(t Time, p *proc) {
	e := event{at: t, seq: k.seq, slot: p.slot, id: p.id}
	switch {
	case t <= k.now:
		e.at = k.now
		k.lane.push(e)
		k.stats.LanePushes++
	case t < Time(math.Inf(1)):
		k.events.pushEvent(e)
		k.stats.HeapPushes++
		k.stats.HeapHighWater = max(k.stats.HeapHighWater, len(k.events))
	default:
		panic(fmt.Sprintf("sim: wakeup at non-finite time %v", float64(t)))
	}
	p.state = stateRunnable
	k.seq++
}

// pending reports whether any wakeup is queued.
func (k *Kernel) pending() bool { return k.lane.n > 0 || len(k.events) > 0 }

// pendingNow reports whether a wakeup is queued at the current instant. The
// heap's top is never earlier than now, so it is pending now iff it is at
// now.
func (k *Kernel) pendingNow() bool {
	return k.lane.n > 0 || (len(k.events) > 0 && k.events[0].at <= k.now)
}

// park suspends the calling blocking process until the kernel resumes it.
// It must be called with the process already registered on some wait list
// or scheduled. Continuation processes cannot park — their primitives'
// *Then variants arm a continuation instead.
func (k *Kernel) park(p *proc) {
	if p.yield == nil {
		panic("sim: blocking operation from a continuation (step) process")
	}
	p.state = stateParked
	if !p.yield(struct{}{}) || p.killed {
		panic(killSentinel{})
	}
	p.state = stateRunning
}

// Run executes events until none remain. It returns the first process panic
// as an error, if any. Processes still blocked when the event queue drains
// are killed (blocking processes' deferred functions run) before Run
// returns.
func (k *Kernel) Run() error { return k.RunUntil(-1) }

// RunUntil executes events with virtual timestamps <= horizon; a negative
// horizon means "run to completion". Remaining processes are killed before
// returning, so the kernel cannot be resumed afterwards.
func (k *Kernel) RunUntil(horizon Time) error {
	if k.running {
		return fmt.Errorf("sim: kernel already running")
	}
	k.running = true
	k.advance(horizon)
	k.shutdown()
	return k.failure
}

// advance is the event loop shared by RunUntil and AdvanceTo: it dispatches
// events with timestamps <= horizon (negative = no bound) and returns
// without killing anything, so the caller decides whether the kernel keeps
// living.
func (k *Kernel) advance(horizon Time) {
	for k.failure == nil && k.pending() {
		// Pop the smaller (at, seq) of the lane head and the heap top.
		var e event
		fromLane := k.lane.n > 0 && (len(k.events) == 0 || k.lane.front().before(&k.events[0]))
		if fromLane {
			e = *k.lane.front()
		} else {
			e = k.events[0]
		}
		if horizon >= 0 && e.at > horizon {
			break
		}
		if fromLane {
			k.lane.pop()
		} else {
			k.events.popMin()
		}
		p := k.procs[e.slot]
		if p.id != e.id || p.state == stateDone || p.state == statePooled {
			k.stats.StaleDropped++
			continue // stale wakeup: the incarnation it was for is gone
		}
		k.stats.Dispatched++
		k.now = e.at
		k.dispatch(p)
	}
}

// AdvanceTo executes events with virtual timestamps <= horizon and returns
// with the kernel still live, so a driver can interleave slices of virtual
// execution with wall-clock pacing (the live serving demo's loop). Unlike
// RunUntil it does NOT kill parked processes at the horizon: calling
// AdvanceTo with ever-growing horizons replays exactly the event sequence a
// single Run would, just in pieces.
//
// done reports that the event queue drained (or a process failed); the
// kernel then shuts down exactly like Run — remaining processes are killed,
// their defers run — and every later call returns (true, err) immediately.
// The horizon must be non-negative. Not concurrency-safe: callers
// synchronize externally, like every other Kernel method.
func (k *Kernel) AdvanceTo(horizon Time) (done bool, err error) {
	if k.finished {
		return true, k.failure
	}
	if k.running {
		return false, fmt.Errorf("sim: kernel already running")
	}
	if horizon < 0 {
		return false, fmt.Errorf("sim: AdvanceTo needs a non-negative horizon")
	}
	k.running = true
	k.advance(horizon)
	if k.failure != nil || !k.pending() {
		k.finished = true
		k.shutdown()
		return true, k.failure
	}
	k.running = false
	return false, nil
}

// dispatch hands control to p until it suspends, finishes or panics. For a
// blocking process that is one coroutine switch in (and one back out, from
// inside park or the incarnation epilogue); for a continuation process it
// is the step trampoline, inline on the event-loop stack.
func (k *Kernel) dispatch(p *proc) {
	if p.yield != nil {
		p.resume()
		return
	}
	k.dispatchStep(p)
}

// shutdown kills every process that is still alive so that no coroutine
// outlives Run, then releases the pooled coroutines.
func (k *Kernel) shutdown() {
	// Kill in a stable order for determinism of any side effects in defers.
	alive := make([]*proc, 0, len(k.procs))
	for _, p := range k.procs {
		if p.state != stateDone && p.state != statePooled {
			alive = append(alive, p)
		}
	}
	sort.Slice(alive, func(i, j int) bool { return alive[i].id < alive[j].id })
	for _, p := range alive {
		p.killed = true
		if p.yield != nil {
			// Resume the coroutine: park (or the pool wait) observes the
			// kill and unwinds through the incarnation's defers.
			p.resume()
		} else {
			// Continuation processes hold no stack, so there is nothing to
			// unwind.
			p.state = stateDone
			p.step = nil
		}
	}
	// Pooled blocking records hold idle coroutines suspended at the pool
	// wait; resume each one so it ends.
	for _, p := range k.procs {
		if p.state == statePooled && p.yield != nil {
			p.killed = true
			p.resume()
		}
	}
	k.freeCoro, k.freeStep = nil, nil
}

// Env is a process's handle to the kernel. One Env belongs to exactly one
// process; it must not be shared across processes.
type Env struct {
	k *Kernel
	p *proc
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.k.now }

// Kernel returns the kernel this process runs on, for constructing
// synchronization primitives from inside a process.
func (e *Env) Kernel() *Kernel { return e.k }

// Rand returns the kernel's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.k.rng }

// Name returns the name the process was spawned with.
func (e *Env) Name() string { return e.p.name }

// Sleep suspends the calling blocking process for d of virtual time.
// Negative durations sleep zero time (the process still yields, so
// same-time events scheduled earlier run first). Continuation processes
// must return After instead.
func (e *Env) Sleep(d Time) {
	k := e.k
	if d <= 0 {
		// Fast path: yielding only matters if another event is pending at
		// the current instant. Otherwise this process would be rescheduled
		// and immediately re-dispatched — skip the two coroutine switches
		// and keep running.
		if !k.pendingNow() {
			return
		}
		k.schedule(k.now, e.p)
		k.park(e.p)
		return
	}
	k.schedule(k.now+d, e.p)
	k.park(e.p)
}

// Yield reschedules the process at the current time behind already-queued
// same-time events. Useful to let other runnable processes make progress.
func (e *Env) Yield() { e.Sleep(0) }

// Spawn starts a new blocking process at the current virtual time.
func (e *Env) Spawn(name string, fn func(*Env)) { e.k.Spawn(name, fn) }

// SpawnStep starts a new continuation process at the current virtual time.
func (e *Env) SpawnStep(name string, step Step) { e.k.SpawnStep(name, step) }
