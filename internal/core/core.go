// Package core implements the Anthill runtime of Section 3: a replicated
// dataflow (filter-stream) system. Applications are decomposed into filters
// connected by unidirectional streams; at run time each filter is spawned as
// transparent copies on multiple nodes of the (simulated) cluster. Filters
// are multi-worker — one worker per processing device — and may provide
// handlers for several device classes; the Event Scheduler assigns queued
// events to devices on demand, under a configurable intra-filter policy,
// while the inter-filter stream policies of Section 5.3 (DDFCFS, DDWRR,
// ODDS) govern which transparent copy receives each data buffer.
//
// The runtime executes real scheduling logic over virtual time: handlers run
// as ordinary Go functions, while their *duration* on a device comes from
// the task's cost model, and all data movement goes through the hardware
// models in internal/hw.
package core

import (
	"fmt"

	"repro/internal/estimator"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// ctrlMsgBytes is the size of request/NACK control messages on the wire.
const ctrlMsgBytes = 64

// Handler processes one event (data buffer) on a device of the kind the
// worker owns. It returns the buffers to emit; returning an empty Action
// completes the task's lineage. ctx is valid only during the call: each
// worker hands the same Ctx to every call, so a handler must copy any
// field it wants to keep rather than the pointer.
type Handler func(ctx *Ctx, t *task.Task) Action

// Action is what a handler wants done with its results. The runtime reads
// both slices before the worker that called the handler runs anything
// else, and keeps neither, so a handler may return slices over one backing
// array it reuses from call to call.
type Action struct {
	// Forward sends buffers down the filter's output stream.
	Forward []*task.Task
	// Resubmit sends buffers back to the source filter feeding this
	// filter's first input stream — the mechanism behind NBIA's
	// multi-resolution recalculation loop.
	Resubmit []*task.Task
}

// Ctx gives handlers access to their execution context.
type Ctx struct {
	Runtime  *Runtime
	Filter   string
	Node     *hw.Node
	Kind     hw.Kind
	Instance int
}

// SeedFunc populates one source-filter instance with its initial tasks.
type SeedFunc func(instance int, emit func(*task.Task))

// FilterSpec declares a filter.
type FilterSpec struct {
	// Name identifies the filter in reports.
	Name string
	// Placement lists the node IDs that receive a transparent copy.
	Placement []int
	// Seed marks an eager source filter: it is called once per instance
	// before the run to enqueue all initial data buffers. Source filters
	// have no workers.
	Seed SeedFunc
	// SourceCount and SourceMake together mark a *lazy* source filter, the
	// shape of a real demand-driven reader: the instance produces
	// SourceMake(instance, k) for k in [0, SourceCount(instance)) as
	// downstream demand arrives, keeping only SourceBuffer tasks queued.
	// Lazily produced buffers therefore interleave with resubmitted work
	// in the send queue instead of being ordered strictly before it.
	SourceCount func(instance int) int
	SourceMake  func(instance, k int) *task.Task
	// SourceBuffer is the sender-side low watermark for lazy sources
	// (default 32).
	SourceBuffer int
	// Handler processes events on non-source filters.
	Handler Handler
	// Release, when set on a processing filter, hands each input buffer
	// back to the application at its last touch: once its handler ran,
	// its lineage was retired and its ProcRecord was emitted. The runtime
	// keeps no reference to a released buffer, so the application may
	// reuse the record. It is called once per processing, except when the
	// handler returned its input in its own Forward or Resubmit (the
	// buffer lives on), and never for a buffer reclaimed upstream after a
	// crash: that one is released where it is processed again.
	Release func(*task.Task)
	// Open marks an open-system source filter: it has no pre-declared
	// workload — externally arriving requests enter through Runtime.Inject
	// at run time (see internal/arrival). Open sources have no workers;
	// like the other source flavours they only feed their output stream.
	Open bool
	// QueueLimit bounds an open source's send-queue depth (admission
	// control): an Inject that would exceed it is rejected instead of
	// queueing unboundedly, so overload degrades into load shedding with
	// bounded memory and bounded queueing delay. 0 means unbounded.
	QueueLimit int
	// UseGPU runs a GPU worker on instances whose node has a GPU. Per the
	// paper's testbed, one CPU core is then dedicated to managing the GPU
	// and is unavailable for CPU work.
	UseGPU bool
	// GPUWorkers is the number of concurrent GPU worker threads per
	// instance (default 1). Values above 1 implement the paper's future
	// work — concurrent execution of multiple tasks on the same GPU: each
	// worker drives its own transfer pipeline, the device executes their
	// kernels concurrently (configure the device with SetConcurrency),
	// and each worker costs one CPU manager core.
	GPUWorkers int
	// CPUWorkers is the number of CPU cores used as workers per instance;
	// -1 means every core left after the GPU manager.
	CPUWorkers int
	// AsyncCopy enables the asynchronous transfer pipeline of Section 5.1
	// for GPU workers (Algorithm 1). When false the GPU copies data
	// synchronously, one event at a time.
	AsyncCopy bool
	// MaxConcurrentCopies bounds Algorithm 1's search (<= 0: default 256).
	MaxConcurrentCopies int
}

// Filter is a declared filter within a Runtime.
type Filter struct {
	spec      FilterSpec
	idx       int
	out       *Stream
	in        []*Stream
	instances []*Instance
	injectRR  int // open-arrival round-robin position (Runtime.Inject)
}

// Name returns the filter's name.
func (f *Filter) Name() string { return f.spec.Name }

// Instances returns the filter's transparent copies (valid after Run).
func (f *Filter) Instances() []*Instance { return f.instances }

// InstanceCount returns the number of transparent copies the filter will
// have (its placement size). Unlike Instances it is valid before Run.
func (f *Filter) InstanceCount() int { return len(f.spec.Placement) }

// Stream is a logical n-to-m channel from the instances of one filter to
// the instances of another, governed by a StreamPolicy.
type Stream struct {
	id      int
	from    *Filter
	to      *Filter
	name    string // "from->to", the hook records' Stream field
	pol     policy.StreamPolicy
	labelFn func(*task.Task) uint64
	stats   streamStats
}

// streamStats counts buffer movements on one stream for the drain-time
// conservation invariant: every buffer shipped by a sender is either
// delivered into a live consumer's queue or re-enqueued upstream by the
// crash-recovery path, so delivered == sent - reenqueued must hold exactly.
type streamStats struct {
	sent       int64 // buffers shipped by a sender (re-sends recount)
	delivered  int64 // buffers landed in a live consumer's input queue
	reenqueued int64 // buffers reclaimed upstream after a crash
}

// Policy returns the stream's policy.
func (s *Stream) Policy() policy.StreamPolicy { return s.pol }

// Labeled reports whether the stream routes buffers by label.
func (s *Stream) Labeled() bool { return s.labelFn != nil }

// Stats returns the stream's conservation counters (sent, delivered,
// re-enqueued buffers).
func (s *Stream) Stats() (sent, delivered, reenqueued int64) {
	return s.stats.sent, s.stats.delivered, s.stats.reenqueued
}

// tracker counts outstanding task lineages; the run completes when the
// count returns to zero.
type tracker struct {
	outstanding int64
	completedAt sim.Time
	total       int64
	done        *sim.Signal
}

func (tr *tracker) adjust(now sim.Time, delta int64) {
	tr.outstanding += delta
	if delta > 0 {
		tr.total += delta
	}
	if tr.outstanding < 0 {
		panic("core: lineage tracker went negative")
	}
	if tr.outstanding == 0 {
		tr.completedAt = now
		tr.done.Fire()
	}
}

// ProcRecord describes one processed event, for profiling tables like the
// paper's Tables 4 and 6.
type ProcRecord struct {
	TaskID uint64
	// Parent is the ID of the task whose processing created this one (0
	// for source-born buffers) — the lineage link trace subscribers use to
	// draw cross-filter flow arrows.
	Parent     uint64
	Filter     string
	Instance   int
	NodeID     int
	Kind       hw.Kind
	Start, End sim.Time
	Params     []float64
	Payload    any
}

// TargetRecord traces a change of a worker's streamRequestsSize (Figure 12b).
type TargetRecord struct {
	Filter   string
	Instance int
	Worker   string
	At       sim.Time
	Target   int
}

// Tunables are the runtime design decisions that DESIGN.md's ablation
// experiments flip individually. The zero value selects the defaults the
// reproduction ships with; each field disables or changes one mechanism.
type Tunables struct {
	// BatchAffinityRatio bounds how much less suited an event may be than
	// a GPU batch's first event and still join the batch (default 0.5).
	// Negative values disable the bound: the GPU greedily drains the
	// shared queue, the failure mode described in DESIGN.md note 3.
	BatchAffinityRatio float64
	// SerialRequester restores the literal reading of Algorithm 3: one
	// outstanding data request per worker thread (DESIGN.md note 1).
	SerialRequester bool
	// NoPipelineDemandFloor removes the concurrentEvents+1 floor under
	// GPU workers' dynamic request targets (DESIGN.md note 5).
	NoPipelineDemandFloor bool
	// DQAAFloor overrides the minimum dynamic request target (default 2;
	// 1 restores Algorithm 2's initialization, DESIGN.md note 4).
	DQAAFloor int
}

// withDefaults materializes the zero-value defaults.
func (t Tunables) withDefaults() Tunables {
	if t.BatchAffinityRatio == 0 {
		t.BatchAffinityRatio = batchAffinityRatio
	}
	if t.DQAAFloor == 0 {
		t.DQAAFloor = 2
	}
	return t
}

// Runtime owns a filter graph bound to a simulated cluster.
type Runtime struct {
	K       *sim.Kernel
	Cluster *hw.Cluster
	Est     *estimator.Estimator
	// Tun adjusts runtime mechanisms for ablation studies; leave zero for
	// the defaults. Must be set before Run.
	Tun Tunables

	tun Tunables // materialized at Run

	filters []*Filter
	streams []*Stream
	track   tracker
	seq     uint64
	idgen   uint64
	ran     bool

	// Hooks is the runtime's hook bus (see Bus). All hooks are nil by
	// default; set them before Run.
	Hooks Bus
}

// New creates a runtime over a cluster. The estimator may be nil, in which
// case all tasks get uniform scheduling weights.
func New(c *hw.Cluster, est *estimator.Estimator) *Runtime {
	rt := &Runtime{K: c.K, Cluster: c, Est: est}
	rt.track.done = sim.NewSignal(c.K)
	return rt
}

// AddFilter declares a filter. Filters must be added before Run.
func (rt *Runtime) AddFilter(spec FilterSpec) *Filter {
	if rt.ran {
		panic("core: AddFilter after Run")
	}
	if spec.Name == "" {
		spec.Name = fmt.Sprintf("filter%d", len(rt.filters))
	}
	if len(spec.Placement) == 0 {
		panic("core: filter needs a placement")
	}
	for _, id := range spec.Placement {
		if id < 0 || id >= len(rt.Cluster.Nodes) {
			panic(fmt.Sprintf("core: filter %q placed on unknown node %d", spec.Name, id))
		}
	}
	lazy := spec.SourceCount != nil || spec.SourceMake != nil
	if lazy && (spec.SourceCount == nil || spec.SourceMake == nil) {
		panic("core: lazy sources need both SourceCount and SourceMake")
	}
	nRoles := 0
	if spec.Seed != nil {
		nRoles++
	}
	if lazy {
		nRoles++
	}
	if spec.Handler != nil {
		nRoles++
	}
	if spec.Open {
		nRoles++
	}
	if nRoles != 1 {
		panic("core: a filter needs exactly one of Seed, SourceCount/SourceMake, Handler, or Open")
	}
	if spec.QueueLimit < 0 {
		panic("core: QueueLimit must be >= 0")
	}
	if spec.QueueLimit > 0 && !spec.Open {
		panic("core: QueueLimit is only meaningful on Open filters")
	}
	if spec.SourceBuffer <= 0 {
		spec.SourceBuffer = 32
	}
	if spec.CPUWorkers == 0 && !spec.UseGPU {
		spec.CPUWorkers = -1
	}
	f := &Filter{spec: spec, idx: len(rt.filters)}
	rt.filters = append(rt.filters, f)
	return f
}

// Connect declares a stream from one filter's output to another's input.
// A filter has at most one output stream but may have several inputs.
func (rt *Runtime) Connect(from, to *Filter, pol policy.StreamPolicy) *Stream {
	if rt.ran {
		panic("core: Connect after Run")
	}
	if from.out != nil {
		panic(fmt.Sprintf("core: filter %q already has an output stream", from.Name()))
	}
	if !pol.Dynamic && pol.RequestSize < 1 {
		panic("core: static stream policy needs RequestSize >= 1")
	}
	s := &Stream{id: len(rt.streams), from: from, to: to, name: from.Name() + "->" + to.Name(), pol: pol}
	from.out = s
	to.in = append(to.in, s)
	rt.streams = append(rt.streams, s)
	return s
}

// ConnectLabeled declares a *labeled* stream, the mechanism of the
// filter-labeled stream programming model the paper's runtime builds on:
// every buffer is routed to the consumer instance given by its label
// (hash-partitioned), so per-label state lives on exactly one transparent
// copy. Demand-driven flow control and the queue orderings of the stream
// policy still apply, but only within each instance's partition.
func (rt *Runtime) ConnectLabeled(from, to *Filter, pol policy.StreamPolicy,
	labelFn func(*task.Task) uint64) *Stream {
	if labelFn == nil {
		panic("core: ConnectLabeled requires a label function")
	}
	if pol.Push {
		panic("core: labeled streams require demand-driven policies")
	}
	s := rt.Connect(from, to, pol)
	s.labelFn = labelFn
	return s
}

// prep stamps a task entering the system: identity, FIFO sequence, creation
// time and estimator-derived scheduling weights.
func (rt *Runtime) prep(t *task.Task, now sim.Time) {
	if t.ID == 0 {
		rt.idgen++
		t.ID = rt.idgen
	}
	rt.seq++
	t.Seq = rt.seq
	t.Created = now
	if t.Weight == ([hw.NumKinds]float64{}) {
		if rt.Est != nil {
			t.Weight[hw.CPU] = 1
			t.Weight[hw.GPU] = rt.Est.Speedup(hw.GPU, t.Params, t.Cats)
			t.ComputeKeys()
		} else {
			t.SetUniformWeight()
		}
	} else if t.Key == ([hw.NumKinds]float64{}) {
		t.ComputeKeys()
	}
}

// Result summarizes a completed run.
type Result struct {
	// Makespan is the virtual time at which the last task lineage
	// completed.
	Makespan sim.Time
	// Completed is the total number of task lineages ever created
	// (initial seeds plus resubmissions).
	Completed int64
	// DrainTime is the virtual time at which the simulation fully
	// settled (trailing control traffic included).
	DrainTime sim.Time
}

// Run builds the instances, seeds the sources, spawns all runtime processes
// and executes the simulation to completion.
func (rt *Runtime) Run() (Result, error) {
	rt.Start()
	err := rt.K.Run()
	if err == nil {
		err = rt.Validate()
	}
	res, _ := rt.result()
	return res, err
}

// Start performs every setup step of Run — building instances, seeding
// sources, spawning processes and the terminator — without entering the
// event loop, so a live driver can advance the kernel incrementally with
// sim.Kernel.AdvanceTo instead of handing it the whole run at once. After
// the kernel drains, call Finish for the validated Result. Run is exactly
// Start + Kernel.Run + Finish.
func (rt *Runtime) Start() {
	if rt.ran {
		panic("core: Run called twice")
	}
	rt.ran = true
	rt.tun = rt.Tun.withDefaults()

	// Build instances and their senders first so streams can be wired.
	for _, f := range rt.filters {
		for i, nodeID := range f.spec.Placement {
			inst := newInstance(rt, f, i, rt.Cluster.Nodes[nodeID])
			f.instances = append(f.instances, inst)
		}
	}
	// Seed source filters (eager) and charge lazy sources' totals to the
	// lineage tracker up front so completion cannot fire while tiles are
	// still unread.
	for _, f := range rt.filters {
		if f.spec.Open && f.out == nil {
			panic(fmt.Sprintf("core: open source filter %q has no output stream", f.Name()))
		}
		if f.spec.Seed == nil && f.spec.SourceCount == nil {
			continue
		}
		for i, inst := range f.instances {
			snd := inst.out
			if snd == nil {
				panic(fmt.Sprintf("core: source filter %q has no output stream", f.Name()))
			}
			if f.spec.Seed != nil {
				f.spec.Seed(i, func(t *task.Task) {
					rt.prep(t, 0)
					rt.track.adjust(0, 1)
					snd.push(t)
				})
				continue
			}
			n := f.spec.SourceCount(i)
			if n < 0 {
				panic(fmt.Sprintf("core: source filter %q instance %d has negative count", f.Name(), i))
			}
			snd.gen = &generator{count: n, make: f.spec.SourceMake, instance: i,
				watermark: f.spec.SourceBuffer, fresh: make([]uint64, 0, f.spec.SourceBuffer)}
			rt.track.adjust(0, int64(n))
			snd.refill(0)
		}
	}
	// Spawn processes.
	for _, f := range rt.filters {
		for _, inst := range f.instances {
			inst.start()
		}
	}
	// Guard against an empty job and wake everything up at completion.
	if rt.track.outstanding == 0 {
		rt.track.done.Fire()
	}
	rt.K.SpawnStep("terminator", func(e *sim.Env) sim.Cont {
		return rt.track.done.WaitThen(e, func(e *sim.Env) sim.Cont {
			for _, f := range rt.filters {
				for _, inst := range f.instances {
					inst.wakeAll()
				}
			}
			return sim.Done()
		})
	})
}

// Finish validates the drained run and assembles its Result — the closing
// half of the Start/AdvanceTo driving mode. Call it exactly once, after the
// kernel reports done.
func (rt *Runtime) Finish() (Result, error) {
	res, err := rt.result()
	if err == nil {
		err = rt.Validate()
	}
	return res, err
}

// result assembles the Result from the lineage tracker's final state.
func (rt *Runtime) result() (Result, error) {
	return Result{
		Makespan:  rt.track.completedAt,
		Completed: rt.track.total,
		DrainTime: rt.K.Now(),
	}, nil
}

// Done reports whether all task lineages have completed.
func (rt *Runtime) Done() bool { return rt.track.done.Fired() }

// FilterByName returns the filter with the given name.
func (rt *Runtime) FilterByName(name string) (*Filter, bool) {
	for _, f := range rt.filters {
		if f.spec.Name == name {
			return f, true
		}
	}
	return nil, false
}

// CheckCrashTarget reports whether (filter, instance) is a legal crash
// target: the filter must exist, be a processing filter (sources hold the
// only copy of unread input, so their loss is unrecoverable), have inst
// within its placement, and consume no labeled stream (labeled consumers own
// per-label state that cannot migrate to a sibling). Usable before Run.
func (rt *Runtime) CheckCrashTarget(name string, inst int) error {
	f, ok := rt.FilterByName(name)
	if !ok {
		return fmt.Errorf("core: unknown filter %q", name)
	}
	if f.spec.Handler == nil {
		return fmt.Errorf("core: filter %q is a source; only processing filters can crash", name)
	}
	if inst < 0 || inst >= len(f.spec.Placement) {
		return fmt.Errorf("core: filter %q has %d instances, cannot crash instance %d",
			name, len(f.spec.Placement), inst)
	}
	for _, s := range f.in {
		if s.labelFn != nil {
			return fmt.Errorf("core: filter %q consumes a labeled stream; its instances cannot crash", name)
		}
	}
	return nil
}

// Validate checks the runtime's drain-time invariants: the run completed
// (no stream deadlock), every stream's conservation identity holds, and no
// queue — in particular none belonging to a dead instance — still holds a
// buffer. Run calls it automatically after a clean kernel drain.
func (rt *Runtime) Validate() error {
	if !rt.track.done.Fired() {
		return fmt.Errorf("core: stream deadlock: %d task lineages outstanding at drain",
			rt.track.outstanding)
	}
	for _, s := range rt.streams {
		if s.stats.delivered != s.stats.sent-s.stats.reenqueued {
			return fmt.Errorf("core: stream %s->%s: delivered %d != sent %d - reenqueued %d",
				s.from.Name(), s.to.Name(), s.stats.delivered, s.stats.sent, s.stats.reenqueued)
		}
	}
	for _, f := range rt.filters {
		for _, inst := range f.instances {
			where := "instance"
			if inst.dead {
				where = "dead instance"
			}
			for qi, is := range inst.inputs {
				if n := is.queue.Len(); n != 0 {
					return fmt.Errorf("core: %s %s/%d input %d holds %d buffers at drain",
						where, f.Name(), inst.idx, qi, n)
				}
			}
			if inst.out == nil {
				continue
			}
			if n := inst.out.queue.Len(); n != 0 {
				return fmt.Errorf("core: %s %s/%d send queue holds %d buffers at drain",
					where, f.Name(), inst.idx, n)
			}
			for pi, p := range inst.out.parts {
				if n := p.Len(); n != 0 {
					return fmt.Errorf("core: %s %s/%d send partition %d holds %d buffers at drain",
						where, f.Name(), inst.idx, pi, n)
				}
			}
		}
	}
	return nil
}
