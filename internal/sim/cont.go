package sim

// Processes are explicit resumable state machines dispatched inline by the
// event loop. A process is a Step function; each dispatch runs the current
// step to completion (steps never block) and the returned Cont directive
// tells the kernel how the process resumes:
//
//	k.SpawnStep("pinger", func(e *Env) Cont {
//	    return ch.GetThen(e, func(e *Env, v int, ok bool) Cont {
//	        if !ok {
//	            return Done()
//	        }
//	        count++
//	        return After(Millisecond, nextStep)
//	    })
//	})
//
// A dispatch is an event-queue pop plus a direct function call — no
// coroutine or goroutine switch. The wait queues of the primitives are
// FIFO, so wakeup order and same-timestamp tie-breaking follow arrival
// order on the queue.
//
// Each func literal above allocates when it is evaluated, which is fine
// for a process that lives long but is the main cost of one that runs per
// message. Hot-path chains therefore keep their state in a record and
// pass method values bound once, when the record is made:
//
//	type pinger struct {
//	    ch    *Chan[int]
//	    count int
//	    recv  func(e *Env, v int, ok bool) Cont // p.onValue, bound once
//	}
//
//	func (p *pinger) onValue(e *Env, v int, ok bool) Cont {
//	    if !ok {
//	        return Done()
//	    }
//	    p.count++
//	    return p.ch.GetThen(e, p.recv)
//	}
//
// A method value stored in a field is a Step (or GetThen continuation)
// that costs nothing per use, and the primitives' own waiter records are
// pooled, so such a chain allocates nothing in steady state. Records that
// serve one message at a time come from a free list and go back to it in
// their last step, after copying out what the continuation needs.
//
// Writing a loop as a step chain:
//
//   - Where the loop goes on without waiting — a *Then whose wait is
//     already satisfied, a zero-length pause with nothing else due — the
//     next step runs inline, on the same dispatch. A step that calls the
//     next one directly recurses once per such transition, so a loop that
//     can go round many times without waiting keeps its iterations in a
//     for loop inside one step (or returns After(0, ...), whose inline run
//     goes through the kernel's trampoline, not the stack).
//   - After(0, next) is a yield: it runs next inline only when nothing else
//     is due at this instant. Where the modelled code does not yield, call
//     next directly instead.
//   - A process still waiting when Run returns or the horizon cuts it off
//     is dropped: it holds no stack, so there is nothing to unwind.

type contCode uint8

const (
	contDone contCode = iota
	contAfter
	contBlocked
)

// Step is the body of one dispatch of a continuation process. It runs
// without blocking and returns a directive naming the next step.
type Step func(e *Env) Cont

// Cont is a continuation directive: what a continuation process does next.
// Construct it with Done, After or Blocked (the zero value is Done).
type Cont struct {
	code contCode
	at   Time
	next Step
}

// Done ends the continuation process. Its record is pooled for reuse by a
// future SpawnStep.
func Done() Cont { return Cont{code: contDone} }

// After resumes the process with next once d of virtual time has passed.
// Non-positive durations resume at the current instant, behind same-time
// events already queued: a yield, which runs next inline when nothing else
// is pending now.
func After(d Time, next Step) Cont { return Cont{code: contAfter, at: d, next: next} }

// Blocked reports that the step has armed its continuation on a wait queue
// (via Chan.GetThen, Resource.AcquireThen, ...): the process resumes when
// that primitive wakes it. Returning Blocked without having registered
// anywhere leaves the process waiting forever (it is dropped at shutdown,
// like any other deadlocked process).
func Blocked() Cont { return Cont{code: contBlocked} }

// DoneStep is a terminal Step that immediately returns Done. It is the
// natural tail of a spawned step chain — pass it as the `next` argument of
// the last *Then in the chain instead of allocating a fresh closure per
// message.
func DoneStep(*Env) Cont { return Done() }

// popFront removes and returns the first element of a wait queue, shifting
// the rest down so the backing array is reused. Re-slicing from the front
// (q = q[1:]) would strand one slot of capacity per pop and force append to
// allocate a fresh array once the spare runs out — once per message on the
// channel and resource hot paths. Queues here are short (usually one or two
// waiters), so the shift is cheaper than the allocation it avoids.
func popFront[T any](q *[]T) T {
	s := *q
	v := s[0]
	var zero T
	copy(s, s[1:])
	s[len(s)-1] = zero
	*q = s[:len(s)-1]
	return v
}

// SpawnStep registers a new process. It may be called before Run or from
// inside any running process. The process starts at the current virtual
// time, after previously scheduled same-time events.
//
// Finished process records are reused, so workloads that spawn one
// short-lived process per message or transfer do not pay a record
// allocation each time.
func (k *Kernel) SpawnStep(name string, step Step) {
	var p *proc
	if n := len(k.freeStep); n > 0 {
		p = k.freeStep[n-1]
		k.freeStep[n-1] = nil
		k.freeStep = k.freeStep[:n-1]
		p.name = name
		p.state = stateNew
	} else {
		p = &proc{state: stateNew, name: name}
		p.env = Env{k: k, p: p}
		k.addProc(p)
	}
	// Fresh id even on reuse: a wakeup for an earlier incarnation of the
	// record is then recognised as stale.
	p.id = k.idgen
	k.idgen++
	p.step = step
	k.schedule(k.now, p)
}

// dispatchStep runs a process's pending step and interprets the directive,
// trampolining zero-delay resumptions inline so After(0, ...) chains never
// grow the stack. A panic unwinds to the event loop, whose recoverStep
// fails the run through p: one deferred recover per loop, not one per
// dispatch.
func (k *Kernel) dispatchStep(p *proc) {
	k.stepping = p
	for {
		step := p.step
		p.state = stateRunning
		c := step(&p.env)
		switch c.code {
		case contDone:
			p.state = statePooled
			p.step = nil
			k.freeStep = append(k.freeStep, p)
			return
		case contAfter:
			p.step = c.next
			if c.at <= 0 {
				// If no other event is pending at this instant the
				// reschedule would be dispatched immediately: run the next
				// step inline.
				if !k.pendingNow() {
					continue
				}
				k.schedule(k.now, p)
				return
			}
			k.scheduleAfter(c.at, p)
			return
		default: // contBlocked
			// The step armed p.step on a wait queue; the primitive's wakeup
			// reschedules us. If the step forgot, the process deadlocks and
			// is dropped at shutdown, like one parked on a queue nobody
			// signals.
			p.state = stateParked
			return
		}
	}
}

// recoverStep is deferred by the event loop. A panic raised while a process
// runs, in its step or in the kernel acting on the step's directive, finds
// that process still in stateRunning. For it, recoverStep records the
// first failure, ends the process, and returns, which winds the simulation
// down.
// Any other panic is the kernel's own and is raised again.
func (k *Kernel) recoverStep() {
	r := recover()
	if r == nil {
		return
	}
	p := k.stepping
	if p == nil || p.state != stateRunning {
		panic(r)
	}
	if k.failure == nil {
		k.failure = procPanic{name: p.name, value: r}
	}
	p.state = stateDone
	p.step = nil
}
