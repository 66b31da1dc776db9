// Package span is the attribution engine: it assembles, per data buffer, a
// causal lineage of typed spans from the runtime's hook bus — upstream emit
// → send-queue (stream-policy / DQAA slot) wait → network transfer →
// input-queue wait and device dispatch → service (split into h2d / kernel /
// d2h pipeline steps for GPU workers) — linked parent→child across filter
// hops by the task lineage IDs the crash-recovery tracker already
// maintains. From the assembled lineages it extracts the critical path of a
// run (the dependency chain ending at the buffer whose completion set the
// makespan), a makespan breakdown per span kind / device class / filter,
// and a top-K bottleneck-buffer table: the answer to "why is this run
// slow?".
//
// Everything is computed from the deterministic hook stream and rendered
// with sorted keys and fixed formatting, so for a fixed seed the Summary()
// text and the Encode() JSON artifact are byte-identical across repeated
// runs, serial or parallel — the property `make determinism` pins
// down. Like every bus subscriber, an unattached collector costs the hot
// path nothing: all hooks stay nil.
package span

import (
	"slices"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// Kind classifies one span of a buffer's lineage.
type Kind int

const (
	// Source is the demand-driven generation wait at a lazy source: the
	// time from the simulation epoch (or the previous hop) until the
	// buffer was actually produced into a send queue.
	Source Kind = iota
	// Queue is the send-queue wait at the producer — the time the stream
	// policy (demand signals, DQAA request slots) left the buffer queued
	// before a consumer's request (or the push loop) selected it.
	Queue
	// Net is the network transfer from producer to consumer.
	Net
	// InQueue is the input-queue wait at the consumer, up to the event
	// scheduler's dispatch decision (DDFCFS/DDWRR/ODDS pop).
	InQueue
	// Service is CPU service: the handler running on the worker's device.
	Service
	// H2D is the host-to-device input copy of the GPU transfer pipeline.
	H2D
	// Kernel is the kernel execution on the GPU.
	Kernel
	// D2H is the device-to-host output copy.
	D2H
	// DevWait is time inside a GPU worker's service window spent waiting
	// for the device or link while pipeline siblings occupy them.
	DevWait
	// Handoff is a lineage hop that pays a control transfer before the
	// buffer re-enters a send queue: resubmission to the root source, or
	// a crash-recovery re-enqueue.
	Handoff

	numKinds
)

var kindNames = [numKinds]string{
	"source", "queue", "net", "inqueue", "service",
	"h2d", "kernel", "d2h", "devwait", "handoff",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "invalid"
	}
	return kindNames[k]
}

// ParseKind maps a kind name back to its Kind; ok is false for unknown
// names (used by the artifact decoder).
func ParseKind(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// XSpan is one transfer-pipeline step of a buffer's service window.
type XSpan struct {
	Kind  xfer.SpanKind
	Start sim.Time
	End   sim.Time
}

// Buffer is the assembled lineage state of one data buffer (task ID).
// Timestamps follow a first-emit / latest-everything-else discipline: the
// first emit anchors the buffer to its creator (forwards fire it at the
// parent handler's completion instant), while crash recovery may re-send
// and re-deliver — the final successful journey is what the critical path
// attributes, with the wasted earlier attempts absorbed into the waits.
type Buffer struct {
	ID     uint64
	Parent uint64
	Stream string
	Bytes  int64

	Producer     string
	ProducerInst int
	Consumer     string
	ConsumerInst int

	Emit, Sent, Deliver             sim.Time
	HaveEmit, HaveSent, HaveDeliver bool
	Push                            bool

	Start, End sim.Time
	Processed  bool
	Device     hw.Kind
	NodeID     int

	X []XSpan
}

// Collector subscribes to a runtime's hook bus and assembles buffer
// lineages. Attach before rt.Run; Build (batch runs) or BuildRequest
// (open-system request roots) after. A long-running open system keeps it
// request-scoped with Forget.
type Collector struct {
	bufs  map[uint64]*Buffer
	order []uint64 // first-seen order, for deterministic iteration
	// dead counts the IDs in order that Forget has dropped from bufs.
	dead int
	// kids lists each parent's children, kept in step with every
	// Buffer.Parent by setParent.
	kids map[uint64][]uint64
	// inject records the admission instant of every accepted open-system
	// request root (Admit hook), the left edge of its per-request tiling.
	inject map[uint64]sim.Time
	// stack is Forget's reusable work stack; free holds forgotten buffer
	// records, reset and kept with their span storage, for reuse.
	stack []uint64
	free  []*Buffer
	// gone holds every forgotten task ID as sorted, disjoint, non-adjacent
	// ranges, so no later record can bring a forgotten buffer back. Task
	// IDs are handed out in sequence and requests finish roughly in order,
	// so the ranges number about as many as the gaps between them: the
	// buffers still tracked, not the buffers ever forgotten.
	gone []idRange
}

// idRange is the closed task-ID interval [lo, hi].
type idRange struct{ lo, hi uint64 }

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{bufs: make(map[uint64]*Buffer), kids: make(map[uint64][]uint64),
		inject: make(map[uint64]sim.Time)}
}

// Injected returns the admission instant of an accepted request root, and
// whether the Admit hook recorded one.
func (c *Collector) Injected(id uint64) (sim.Time, bool) {
	t, ok := c.inject[id]
	return t, ok
}

// buf returns (creating if needed) the buffer record for a task ID, or nil
// for a forgotten ID.
func (c *Collector) buf(id uint64) *Buffer {
	b := c.bufs[id]
	if b == nil {
		if c.forgotten(id) {
			return nil
		}
		if n := len(c.free); n > 0 {
			b = c.free[n-1]
			c.free = c.free[:n-1]
		} else {
			b = new(Buffer)
		}
		b.ID, b.ProducerInst, b.ConsumerInst = id, -1, -1
		c.bufs[id] = b
		c.order = append(c.order, id)
	}
	return b
}

// goneAt returns the index of the forgotten range holding id, or where one
// would be inserted, and whether one holds it.
func (c *Collector) goneAt(id uint64) (int, bool) {
	return slices.BinarySearchFunc(c.gone, id, func(r idRange, id uint64) int {
		switch {
		case r.hi < id:
			return -1
		case r.lo > id:
			return 1
		}
		return 0
	})
}

// forgotten reports whether Forget has dropped task id.
func (c *Collector) forgotten(id uint64) bool {
	_, ok := c.goneAt(id)
	return ok
}

// bury adds id to the forgotten ranges, joining its neighbours.
func (c *Collector) bury(id uint64) {
	i, ok := c.goneAt(id)
	if ok {
		return
	}
	g := c.gone
	// g[i-1].hi < id < g[i].lo, so neither difference wraps.
	joinPrev := i > 0 && id-g[i-1].hi == 1
	joinNext := i < len(g) && g[i].lo-id == 1
	switch {
	case joinPrev && joinNext:
		g[i-1].hi = g[i].hi
		c.gone = append(g[:i], g[i+1:]...)
	case joinPrev:
		g[i-1].hi = id
	case joinNext:
		g[i].lo = id
	default:
		c.gone = slices.Insert(g, i, idRange{id, id})
	}
}

// Forget drops the lineage reachable from request root: every buffer in
// it, their children lists, and the root's admission instant. Records that
// arrive later for any of those task IDs are ignored, so call it once the
// request has finished. It keeps the collector's memory proportional to
// the requests still open plus those kept on purpose (a live view's worst
// violator), however many have been served.
func (c *Collector) Forget(root uint64) {
	if b := c.bufs[root]; b != nil {
		c.setParent(b, 0) // unlink the root from a parent outside the lineage
	}
	delete(c.inject, root)
	stack := append(c.stack[:0], root)
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = append(stack[:len(stack)-1], c.kids[id]...)
		delete(c.kids, id)
		if b := c.bufs[id]; b != nil {
			delete(c.bufs, id)
			c.dead++
			*b = Buffer{X: b.X[:0]}
			c.free = append(c.free, b)
		}
		c.bury(id)
	}
	c.stack = stack
	if c.dead > len(c.bufs) {
		live := c.order[:0]
		for _, id := range c.order {
			if _, ok := c.bufs[id]; ok {
				live = append(live, id)
			}
		}
		c.order, c.dead = live, 0
	}
}

// setParent links b under parent p (0 for none), moving it in the children
// index.
func (c *Collector) setParent(b *Buffer, p uint64) {
	if b.Parent == p {
		return
	}
	if old := b.Parent; old != 0 {
		sibs := c.kids[old]
		for i, id := range sibs {
			if id == b.ID {
				c.kids[old] = append(sibs[:i], sibs[i+1:]...)
				break
			}
		}
	}
	b.Parent = p
	if p != 0 {
		c.kids[p] = append(c.kids[p], b.ID)
	}
}

// Buffers returns the number of tracked buffers.
func (c *Collector) Buffers() int { return len(c.bufs) }

// Attach subscribes the collector to the runtime's bus, chaining any
// subscriber already installed. Call before rt.Run.
func (c *Collector) Attach(rt *core.Runtime) {
	core.Subscribe(&rt.Hooks.Emit, func(r core.EmitRecord) {
		if b := c.buf(r.TaskID); b != nil && !b.HaveEmit {
			b.HaveEmit = true
			b.Emit = r.At
			c.setParent(b, r.Parent)
			b.Stream = r.Stream
			b.Producer = r.Filter
			b.ProducerInst = r.Instance
			b.Bytes = r.Bytes
		}
	})
	core.Subscribe(&rt.Hooks.Send, func(r core.SendRecord) {
		if b := c.buf(r.TaskID); b != nil {
			b.Sent = r.At
			b.HaveSent = true
		}
	})
	core.Subscribe(&rt.Hooks.Deliver, func(r core.DeliverRecord) {
		if b := c.buf(r.TaskID); b != nil {
			b.Deliver = r.At
			b.HaveDeliver = true
			b.Consumer = r.Filter
			b.ConsumerInst = r.Instance
			b.Push = r.Push
		}
	})
	core.Subscribe(&rt.Hooks.Process, func(r core.ProcRecord) {
		if b := c.buf(r.TaskID); b != nil {
			b.Processed = true
			b.Start = r.Start
			b.End = r.End
			b.Device = r.Kind
			b.NodeID = r.NodeID
			if b.Parent == 0 {
				c.setParent(b, r.Parent)
			}
			b.Consumer = r.Filter
			b.ConsumerInst = r.Instance
		}
	})
	core.Subscribe(&rt.Hooks.Admit, func(r core.AdmitRecord) {
		if r.Accepted && !c.forgotten(r.TaskID) {
			// Rejected arrivals carry TaskID 0 and never enter the system;
			// accepted ones become per-request lineage roots.
			c.inject[r.TaskID] = r.At
		}
	})
	core.Subscribe(&rt.Hooks.Span, func(r core.SpanRecord) {
		if b := c.buf(r.TaskID); b != nil {
			b.X = append(b.X, XSpan{Kind: r.Kind, Start: r.Start, End: r.End})
		}
	})
}
