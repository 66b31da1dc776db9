package sim

// Chan is a blocking FIFO channel between simulated processes, analogous to
// a Go channel but operating in virtual time. A capacity of zero gives
// rendezvous semantics. All operations must be called from simulated
// processes of the same kernel.
//
// The wait queues are continuation-aware: blocking processes (Put/Get) and
// continuation processes (PutThen/GetThen) share the same FIFO queues, so
// wakeup order is a single discipline regardless of process flavour.
//
// Waiting costs no allocation in steady state. A process that has to wait
// is queued as a waiter record drawn from the channel's own free list, and
// the record goes back to that list as soon as its process resumes. A
// continuation waiter's resume step is a method value on the record, bound
// once when the record is first made, so GetThen and a blocked PutThen
// build no closure per call.
type Chan[T any] struct {
	k        *Kernel
	capacity int
	buf      []T
	getQ     []*chanGetter[T]
	putQ     []*chanPutter[T]
	freeGet  []*chanGetter[T] // idle getter records, reused by Get/GetThen
	freePut  []*chanPutter[T] // idle putter records, reused by Put/PutThen
	closed   bool
}

// chanGetter is a pooled getter record. Delivery (or Close) fills val, ok
// and hit before waking p.
type chanGetter[T any] struct {
	c   *Chan[T]
	p   *proc
	val T
	ok  bool
	hit bool // value delivered directly (or channel closed)
	// GetThen only: the caller's continuation, and wake bound as a Step.
	next   func(e *Env, v T, ok bool) Cont
	resume Step
}

// chanPutter is a pooled putter record.
type chanPutter[T any] struct {
	c   *Chan[T]
	p   *proc
	val T
	// PutThen only: the caller's continuation, and wake bound as a Step.
	next   Step
	resume Step
}

// NewChan creates a channel with the given buffer capacity (>= 0).
func NewChan[T any](k *Kernel, capacity int) *Chan[T] {
	if capacity < 0 {
		panic("sim: negative channel capacity")
	}
	return &Chan[T]{k: k, capacity: capacity}
}

// Len reports the number of buffered items.
func (c *Chan[T]) Len() int { return len(c.buf) }

// Closed reports whether Close has been called.
func (c *Chan[T]) Closed() bool { return c.closed }

// Put delivers v, blocking while the buffer is full (or, for capacity zero,
// until a getter arrives). Put on a closed channel panics.
func (c *Chan[T]) Put(e *Env, v T) {
	if c.putReady(v) {
		return
	}
	w := c.newPutter(e.p, v)
	c.putQ = append(c.putQ, w)
	c.k.park(e.p)
	c.releasePutter(w)
	if c.closed {
		panic("sim: channel closed while put blocked")
	}
}

// PutThen is the continuation form of Put: it delivers v (immediately when
// there is room or a waiting getter, otherwise after blocking in the same
// FIFO putter queue) and then runs the next step. Steps must return the
// directive PutThen returns. Blocking takes a pooled putter record, so it
// allocates nothing.
func (c *Chan[T]) PutThen(e *Env, v T, next Step) Cont {
	if c.putReady(v) {
		return next(e)
	}
	w := c.newPutter(e.p, v)
	w.next = next
	c.putQ = append(c.putQ, w)
	e.p.step = w.resume
	return Blocked()
}

// wake is a blocked PutThen's resume step: the getter that took the value
// has already dequeued the record, so it goes back to the free list before
// the continuation runs.
func (w *chanPutter[T]) wake(e *Env) Cont {
	c, next := w.c, w.next
	c.releasePutter(w)
	if c.closed {
		panic("sim: channel closed while put blocked")
	}
	return next(e)
}

func (c *Chan[T]) newPutter(p *proc, v T) *chanPutter[T] {
	var w *chanPutter[T]
	if n := len(c.freePut); n > 0 {
		w = c.freePut[n-1]
		c.freePut = c.freePut[:n-1]
	} else {
		w = &chanPutter[T]{c: c}
		w.resume = w.wake
	}
	w.p, w.val = p, v
	return w
}

func (c *Chan[T]) releasePutter(w *chanPutter[T]) {
	var zero T
	w.p, w.val, w.next = nil, zero, nil
	c.freePut = append(c.freePut, w)
}

// putReady performs the non-blocking part of a put: direct hand-off to a
// waiting getter or insertion into buffer space. It reports whether v was
// delivered; panics if the channel is closed.
func (c *Chan[T]) putReady(v T) bool {
	if c.closed {
		panic("sim: put on closed channel")
	}
	// Direct hand-off to a waiting getter keeps FIFO order only when no
	// values are already buffered ahead of v.
	if len(c.getQ) > 0 && len(c.buf) == 0 {
		g := popFront(&c.getQ)
		g.val, g.ok, g.hit = v, true, true
		c.k.schedule(c.k.now, g.p)
		return true
	}
	if len(c.buf) < c.capacity {
		c.buf = append(c.buf, v)
		return true
	}
	return false
}

// Get removes and returns the next value. It blocks while the channel is
// empty; it returns ok=false once the channel is closed and drained.
func (c *Chan[T]) Get(e *Env) (T, bool) {
	for {
		if v, ok := c.takeReady(); ok {
			return v, true
		}
		if c.closed {
			var zero T
			return zero, false
		}
		g := c.newGetter(e.p)
		c.getQ = append(c.getQ, g)
		c.k.park(e.p)
		v, ok, hit := g.val, g.ok, g.hit
		c.releaseGetter(g)
		if hit {
			return v, ok
		}
		// Spurious wakeup is impossible in this kernel, but the loop also
		// covers the close-while-waiting path where hit is set with ok=false.
	}
}

// GetThen is the continuation form of Get: it runs next with the received
// value (immediately when one is available, otherwise after waiting in the
// same FIFO getter queue) or with ok=false once the channel is closed and
// drained. Steps must return the directive GetThen returns. Waiting takes a
// pooled getter record and allocates nothing; pass a next bound once (a
// method value kept in a field) to keep the whole call allocation-free.
func (c *Chan[T]) GetThen(e *Env, next func(e *Env, v T, ok bool) Cont) Cont {
	if v, ok := c.takeReady(); ok {
		return next(e, v, true)
	}
	if c.closed {
		var zero T
		return next(e, zero, false)
	}
	g := c.newGetter(e.p)
	g.next = next
	c.getQ = append(c.getQ, g)
	e.p.step = g.resume
	return Blocked()
}

// wake is a parked GetThen's resume step. Delivery (or Close) set val and ok
// and dequeued the record before waking the process; spurious wakeups are
// impossible, matching the blocking Get loop. The record goes back to the
// free list before the continuation runs, so a continuation that waits on
// the channel again reuses it.
func (g *chanGetter[T]) wake(e *Env) Cont {
	c, next, v, ok := g.c, g.next, g.val, g.ok
	c.releaseGetter(g)
	return next(e, v, ok)
}

func (c *Chan[T]) newGetter(p *proc) *chanGetter[T] {
	var g *chanGetter[T]
	if n := len(c.freeGet); n > 0 {
		g = c.freeGet[n-1]
		c.freeGet = c.freeGet[:n-1]
	} else {
		g = &chanGetter[T]{c: c}
		g.resume = g.wake
	}
	g.p = p
	return g
}

func (c *Chan[T]) releaseGetter(g *chanGetter[T]) {
	var zero T
	g.p, g.val, g.ok, g.hit, g.next = nil, zero, false, false, nil
	c.freeGet = append(c.freeGet, g)
}

// TryGet is the non-blocking variant of Get: ok=false means no value was
// immediately available.
func (c *Chan[T]) TryGet() (T, bool) {
	if v, ok := c.takeReady(); ok {
		return v, true
	}
	var zero T
	return zero, false
}

// takeReady pops a buffered value (promoting a blocked putter into the
// buffer) or accepts a value from a blocked putter directly (rendezvous).
func (c *Chan[T]) takeReady() (T, bool) {
	if len(c.buf) > 0 {
		v := popFront(&c.buf)
		if len(c.putQ) > 0 {
			w := popFront(&c.putQ)
			c.buf = append(c.buf, w.val)
			c.k.schedule(c.k.now, w.p)
		}
		return v, true
	}
	if len(c.putQ) > 0 { // capacity 0 rendezvous
		w := popFront(&c.putQ)
		c.k.schedule(c.k.now, w.p)
		return w.val, true
	}
	var zero T
	return zero, false
}

// Close marks the channel closed and wakes all blocked getters with
// ok=false. Items already buffered remain retrievable. Closing twice
// panics, as does closing with blocked putters.
func (c *Chan[T]) Close(e *Env) {
	if c.closed {
		panic("sim: close of closed channel")
	}
	if len(c.putQ) > 0 {
		panic("sim: close with blocked putters")
	}
	c.closed = true
	for _, g := range c.getQ {
		g.hit, g.ok = true, false
		c.k.schedule(c.k.now, g.p)
	}
	c.getQ = nil
}
