package sim

// Synchronization primitives over virtual time. A process waits by arming
// its next step with AcquireThen or WaitThen; wait queues are FIFO, so
// admission and wakeup order follow arrival order. A wait that is already
// satisfied runs the next step inline.

// Resource is a counting semaphore over virtual time with FIFO admission.
// It models exclusive or bounded-concurrency hardware such as a bus, a DMA
// engine or a processor.
type Resource struct {
	k        *Kernel
	capacity int
	inUse    int
	waitQ    []*proc
}

// NewResource creates a resource with the given capacity (>= 1).
func NewResource(k *Kernel, capacity int) *Resource {
	if capacity < 1 {
		panic("sim: resource capacity must be >= 1")
	}
	return &Resource{k: k, capacity: capacity}
}

// InUse reports the number of currently held units.
func (r *Resource) InUse() int { return r.inUse }

// Capacity reports the total number of units.
func (r *Resource) Capacity() int { return r.capacity }

// AcquireThen obtains one unit and then runs the next step: inline when a
// unit is free and nobody waits, otherwise after waiting in FIFO order. Steps must return the directive AcquireThen
// returns.
func (r *Resource) AcquireThen(e *Env, next Step) Cont {
	if r.inUse < r.capacity && len(r.waitQ) == 0 {
		r.inUse++
		return next(e)
	}
	r.waitQ = append(r.waitQ, e.p)
	e.p.step = next // the releaser transfers its unit; inUse stays constant
	return Blocked()
}

// Release returns one unit and admits the longest-waiting process, if any.
func (r *Resource) Release() {
	if r.inUse <= 0 {
		panic("sim: release of idle resource")
	}
	if len(r.waitQ) > 0 {
		r.k.schedule(r.k.now, popFront(&r.waitQ))
		return // unit handed directly to the waiter
	}
	r.inUse--
}

// Signal is a one-shot broadcast event: every process that waits before
// Fire blocks; Fire releases them all, and later waits go on at once. Reset
// re-arms a fired signal for reuse. The waiter array is kept across Fire, so
// a reused signal queues its waiters without allocating.
type Signal struct {
	k       *Kernel
	fired   bool
	waiters []*proc
}

// NewSignal creates an unfired signal.
func NewSignal(k *Kernel) *Signal { return &Signal{k: k} }

// Fired reports whether the signal has fired.
func (s *Signal) Fired() bool { return s.fired }

// WaitThen runs next once the signal has fired: inline if it already has. Steps must return the
// directive WaitThen returns.
func (s *Signal) WaitThen(e *Env, next Step) Cont {
	if s.fired {
		return next(e)
	}
	s.waiters = append(s.waiters, e.p)
	e.p.step = next
	return Blocked()
}

// Fire releases all current and future waiters. Firing twice is a no-op.
func (s *Signal) Fire() {
	if s.fired {
		return
	}
	s.fired = true
	for i, p := range s.waiters {
		s.k.schedule(s.k.now, p)
		s.waiters[i] = nil
	}
	s.waiters = s.waiters[:0]
}

// Reset re-arms the signal, so later waits block until the next Fire. A
// fired signal has no waiters, so nothing is lost; resetting an unfired
// signal is a no-op.
func (s *Signal) Reset() { s.fired = false }

// Cond is a condition variable for the cooperative kernel: because only one
// process runs at a time no mutex is needed, but waiters must re-check their
// predicate in their continuation after waking (NotifyAll wakes every
// waiter) and re-register with WaitThen when it still does not hold.
type Cond struct {
	k       *Kernel
	waiters []*proc
}

// NewCond creates a condition variable.
func NewCond(k *Kernel) *Cond { return &Cond{k: k} }

// WaitThen runs next after the next notify. Steps must return the directive WaitThen returns.
func (c *Cond) WaitThen(e *Env, next Step) Cont {
	c.waiters = append(c.waiters, e.p)
	e.p.step = next
	return Blocked()
}

// NotifyAll wakes every currently waiting process. The waiter slice's
// backing array is kept for reuse — workers and requesters re-wait on the
// same Cond immediately, and dropping the array would cost one allocation
// per notify/wait cycle on the demand path.
func (c *Cond) NotifyAll() {
	for i, p := range c.waiters {
		c.k.schedule(c.k.now, p)
		c.waiters[i] = nil
	}
	c.waiters = c.waiters[:0]
}

// NotifyOne wakes the longest-waiting process, if any.
func (c *Cond) NotifyOne() {
	if len(c.waiters) == 0 {
		return
	}
	c.k.schedule(c.k.now, popFront(&c.waiters))
}

// WaitGroup tracks completion of a dynamic set of processes in virtual time.
// Once the counter is back at zero the group can be reused; its waiter array
// is kept, so a reused group queues its waiters without allocating.
type WaitGroup struct {
	k     *Kernel
	count int
	done  []*proc
}

// NewWaitGroup creates an empty wait group.
func NewWaitGroup(k *Kernel) *WaitGroup { return &WaitGroup{k: k} }

// Add increments the outstanding-work counter.
func (w *WaitGroup) Add(n int) { w.count += n }

// Done decrements the counter, waking waiters when it reaches zero.
func (w *WaitGroup) Done() {
	w.count--
	if w.count < 0 {
		panic("sim: WaitGroup counter below zero")
	}
	if w.count == 0 {
		for i, p := range w.done {
			w.k.schedule(w.k.now, p)
			w.done[i] = nil
		}
		w.done = w.done[:0]
	}
}

// WaitThen runs next once the counter is zero: inline if it already is. Steps must return the directive
// WaitThen returns.
func (w *WaitGroup) WaitThen(e *Env, next Step) Cont {
	if w.count == 0 {
		return next(e)
	}
	w.done = append(w.done, e.p)
	e.p.step = next
	return Blocked()
}
