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

	free []*batchRun // idle batch state, reused by RunBatchThen
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

// RunBatchThen executes the batch — input copies, kernel executions and
// output copies — and then runs next; the caller forwards results there.
// The batch's duration is the virtual time from the call to next. An empty
// batch runs next inline. Steps must return the directive RunBatchThen
// returns. The batch's state is a pooled record with steps bound once, so
// a batch allocates nothing in steady state.
func (x *Executor) RunBatchThen(e *sim.Env, batch []*task.Task, next sim.Step) sim.Cont {
	if len(batch) == 0 {
		return next(e)
	}
	r := x.takeRun(e.Kernel())
	r.batch, r.i, r.next = batch, 0, next
	if !x.Async {
		return r.syncSlot(e)
	}
	// Phase 1: issue every host-to-device copy on its own CUDA stream, each
	// a step chain of its own.
	r.grow(e.Kernel(), len(batch))
	for i, t := range batch {
		c := r.in[i]
		c.size, c.id = t.Size, t.ID
		c.sig.Reset()
		e.SpawnStep("h2d", c.startStep)
	}
	return r.kernelWait(e)
}

// batchRun is the reusable state of one RunBatchThen: the batch, the slot
// in service and its span start times, and, for the asynchronous
// pipeline, a copy record per slot and direction and the wait group of
// phase 3. Every copy has finished by the time the batch's next runs, so
// the run goes back to the executor's free list then; a batch running
// concurrently on the same executor takes a run of its own.
type batchRun struct {
	x      *Executor
	batch  []*task.Task
	i      int      // the slot in service
	t0, t1 sim.Time // start of the slot's current span, and of the one before
	next   sim.Step
	in     []*copyRec
	out    []*copyRec
	wg     *sim.WaitGroup
	// Bound once in takeRun.
	syncKernelStep, syncOutStep, syncDoneStep sim.Step
	kernelStep, kernelDoneStep, finishStep    sim.Step
}

// takeRun returns a free batchRun.
func (x *Executor) takeRun(k *sim.Kernel) *batchRun {
	if m := len(x.free); m > 0 {
		r := x.free[m-1]
		x.free[m-1] = nil
		x.free = x.free[:m-1]
		return r
	}
	r := &batchRun{x: x, wg: sim.NewWaitGroup(k)}
	r.syncKernelStep, r.syncOutStep, r.syncDoneStep = r.syncKernel, r.syncOut, r.syncDone
	r.kernelStep, r.kernelDoneStep, r.finishStep = r.kernel, r.kernelDone, r.finish
	return r
}

// grow makes sure the run has copy records for n slots.
func (r *batchRun) grow(k *sim.Kernel, n int) {
	for len(r.in) < n {
		r.in = append(r.in, r.x.newCopy(SpanH2D, sim.NewSignal(k), nil))
		r.out = append(r.out, r.x.newCopy(SpanD2H, nil, r.wg))
	}
}

// finish returns the run to the free list and runs the batch's next.
func (r *batchRun) finish(e *sim.Env) sim.Cont {
	x, next := r.x, r.next
	r.batch, r.next = nil, nil
	x.free = append(x.free, r)
	return next(e)
}

// The synchronous path: the host thread drives each transfer to completion
// before launching the kernel, and the GPU sits idle during both copies.
// Per slot: syncSlot copies the input in, syncKernel runs the kernel,
// syncOut copies the output back and syncDone moves to the next slot.

func (r *batchRun) syncSlot(e *sim.Env) sim.Cont {
	if r.i == len(r.batch) {
		return r.finish(e)
	}
	t := r.batch[r.i]
	r.t0 = e.Now()
	return r.x.Link.CopyThen(e, t.Size, hw.HostToDevice, r.syncKernelStep)
}

func (r *batchRun) syncKernel(e *sim.Env) sim.Cont {
	t := r.batch[r.i]
	r.t1 = e.Now()
	r.x.span(SpanH2D, r.t0, r.t1, t.Size, t.ID)
	return r.x.Dev.RunThen(e, t.Cost(t, hw.GPU), r.syncOutStep)
}

func (r *batchRun) syncOut(e *sim.Env) sim.Cont {
	t := r.batch[r.i]
	r.t0 = e.Now()
	r.x.span(SpanKernel, r.t1, r.t0, 0, t.ID)
	return r.x.Link.CopyThen(e, t.OutSize, hw.DeviceToHost, r.syncDoneStep)
}

func (r *batchRun) syncDone(e *sim.Env) sim.Cont {
	t := r.batch[r.i]
	r.x.span(SpanD2H, r.t0, e.Now(), t.OutSize, t.ID)
	r.i++
	return r.syncSlot(e)
}

// kernelWait is phase 2 of the asynchronous pipeline: process events in
// order as their inputs arrive, so the copy of event i+1 overlaps the
// kernel of event i. After the last kernel, phase 3 issues every
// device-to-host copy and waits for all of them.
func (r *batchRun) kernelWait(e *sim.Env) sim.Cont {
	if r.i < len(r.batch) {
		return r.in[r.i].sig.WaitThen(e, r.kernelStep)
	}
	r.wg.Add(len(r.batch))
	for i, t := range r.batch {
		c := r.out[i]
		c.size, c.id = t.OutSize, t.ID
		e.SpawnStep("d2h", c.startStep)
	}
	return r.wg.WaitThen(e, r.finishStep)
}

func (r *batchRun) kernel(e *sim.Env) sim.Cont {
	t := r.batch[r.i]
	r.t0 = e.Now()
	return r.x.Dev.RunThen(e, t.Cost(t, hw.GPU), r.kernelDoneStep)
}

func (r *batchRun) kernelDone(e *sim.Env) sim.Cont {
	t := r.batch[r.i]
	r.x.span(SpanKernel, r.t0, e.Now(), 0, t.ID)
	r.i++
	return r.kernelWait(e)
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
