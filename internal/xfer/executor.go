package xfer

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
)

// Executor runs batches of events on a GPU behind a PCIe link, in either
// synchronous mode (copy → kernel → copy back, one event at a time, no
// overlap — the baseline of Figure 6) or asynchronous mode (Algorithm 1:
// all host-to-device copies of the batch issued concurrently, kernels
// executed as their inputs land, then all device-to-host copies issued
// concurrently — transfers grouped per direction so the concurrent copy
// engine is actually used).
type Executor struct {
	Dev   *hw.Device
	Link  *hw.Link
	Async bool
	// OnSpan, if set, is called after every pipeline span — one
	// host-to-device copy, one kernel execution, or one device-to-host
	// copy — with the span's virtual-time bounds. Nil costs nothing.
	OnSpan func(Span)

	free []*asyncRun // idle asynchronous-batch state, reused by runAsync
}

// SpanKind classifies a transfer-pipeline span.
type SpanKind int

const (
	// SpanH2D is a host-to-device input copy.
	SpanH2D SpanKind = iota
	// SpanKernel is a kernel execution on the device.
	SpanKernel
	// SpanD2H is a device-to-host output copy.
	SpanD2H
)

func (k SpanKind) String() string {
	switch k {
	case SpanH2D:
		return "h2d"
	case SpanKernel:
		return "kernel"
	case SpanD2H:
		return "d2h"
	default:
		return "span"
	}
}

// Span is one timed step of the transfer pipeline.
type Span struct {
	Kind  SpanKind
	Start sim.Time
	End   sim.Time
	// Bytes is the transfer size; 0 for kernel spans.
	Bytes int64
	// Task is the ID of the data buffer the span belongs to, so
	// subscribers can assemble a per-buffer pipeline lineage.
	Task uint64
}

// span reports one completed step to the OnSpan subscriber.
func (x *Executor) span(kind SpanKind, start, end sim.Time, bytes int64, taskID uint64) {
	if x.OnSpan != nil {
		x.OnSpan(Span{Kind: kind, Start: start, End: end, Bytes: bytes, Task: taskID})
	}
}

// NewExecutor creates an executor for one GPU and its link.
func NewExecutor(dev *hw.Device, link *hw.Link, async bool) *Executor {
	if dev == nil || link == nil {
		panic("xfer: executor needs a device and a link")
	}
	return &Executor{Dev: dev, Link: link, Async: async}
}

// RunBatch executes the batch and returns its wall (virtual) duration. The
// caller forwards results afterwards; RunBatch covers input copies, kernel
// executions and output copies only.
func (x *Executor) RunBatch(e *sim.Env, batch []*task.Task) sim.Time {
	if len(batch) == 0 {
		return 0
	}
	start := e.Now()
	if x.Async {
		x.runAsync(e, batch)
	} else {
		x.runSync(e, batch)
	}
	return e.Now() - start
}

func (x *Executor) runSync(e *sim.Env, batch []*task.Task) {
	// Synchronous copies: the host thread drives each transfer to
	// completion before launching the kernel, and the GPU sits idle during
	// both copies.
	for _, t := range batch {
		t0 := e.Now()
		x.Link.Copy(e, t.Size, hw.HostToDevice)
		t1 := e.Now()
		x.span(SpanH2D, t0, t1, t.Size, t.ID)
		x.Dev.Run(e, t.Cost(t, hw.GPU))
		t2 := e.Now()
		x.span(SpanKernel, t1, t2, 0, t.ID)
		x.Link.Copy(e, t.OutSize, hw.DeviceToHost)
		x.span(SpanD2H, t2, e.Now(), t.OutSize, t.ID)
	}
}

func (x *Executor) runAsync(e *sim.Env, batch []*task.Task) {
	r := x.takeRun(e.Kernel(), len(batch))
	// Phase 1: issue every host-to-device copy on its own CUDA stream. The
	// per-transfer processes are stackless step chains — a copy is a
	// link-queue hop plus a timed wait, no coroutine stack needed.
	for i, t := range batch {
		c := r.in[i]
		c.size, c.id = t.Size, t.ID
		c.sig.Reset()
		e.SpawnStep("h2d", c.startStep)
	}
	// Phase 2: process events in order as their inputs arrive; the copy of
	// event i+1 overlaps the kernel of event i.
	for i, t := range batch {
		r.in[i].sig.Wait(e)
		t0 := e.Now()
		x.Dev.Run(e, t.Cost(t, hw.GPU))
		x.span(SpanKernel, t0, e.Now(), 0, t.ID)
	}
	// Phase 3: issue every device-to-host copy, then wait for all of them.
	r.wg.Add(len(batch))
	for i, t := range batch {
		c := r.out[i]
		c.size, c.id = t.OutSize, t.ID
		e.SpawnStep("d2h", c.startStep)
	}
	r.wg.Wait(e)
	x.free = append(x.free, r)
}

// asyncRun is the reusable state of one asynchronous RunBatch: a copy
// record per batch slot and direction, and the wait group of phase 3. Every
// copy has finished by the time RunBatch returns, so the run goes back to
// the executor's free list then; a RunBatch running concurrently on the
// same executor takes a run of its own.
type asyncRun struct {
	in, out []*copyRec
	wg      *sim.WaitGroup
}

// copyRec is one host-to-device or device-to-host copy of a batch. Its
// steps are method values bound once, when the record is made.
type copyRec struct {
	x    *Executor
	kind SpanKind // SpanH2D or SpanD2H
	size int64
	id   uint64
	t0   sim.Time
	// h2d only: fired when the input has landed on the device.
	sig *sim.Signal
	// d2h only: the run's wait group.
	wg *sim.WaitGroup

	startStep, doneStep sim.Step
}

// takeRun returns a free asyncRun with records for n events.
func (x *Executor) takeRun(k *sim.Kernel, n int) *asyncRun {
	var r *asyncRun
	if m := len(x.free); m > 0 {
		r = x.free[m-1]
		x.free[m-1] = nil
		x.free = x.free[:m-1]
	} else {
		r = &asyncRun{wg: sim.NewWaitGroup(k)}
	}
	for len(r.in) < n {
		r.in = append(r.in, x.newCopy(SpanH2D, sim.NewSignal(k), nil))
		r.out = append(r.out, x.newCopy(SpanD2H, nil, r.wg))
	}
	return r
}

func (x *Executor) newCopy(kind SpanKind, sig *sim.Signal, wg *sim.WaitGroup) *copyRec {
	c := &copyRec{x: x, kind: kind, sig: sig, wg: wg}
	c.startStep, c.doneStep = c.start, c.done
	return c
}

func (c *copyRec) start(e *sim.Env) sim.Cont {
	c.t0 = e.Now()
	dir := hw.HostToDevice
	if c.kind == SpanD2H {
		dir = hw.DeviceToHost
	}
	return c.x.Link.CopyThen(e, c.size, dir, c.doneStep)
}

func (c *copyRec) done(e *sim.Env) sim.Cont {
	c.x.span(c.kind, c.t0, e.Now(), c.size, c.id)
	if c.kind == SpanH2D {
		c.sig.Fire()
	} else {
		c.wg.Done()
	}
	return sim.Done()
}
