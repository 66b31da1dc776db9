// Package hw models the heterogeneous hardware of the paper's testbed — CPU
// cores, GPUs, the PCIe link between them, and a switched Ethernet network —
// on top of the virtual-time kernel in internal/sim.
//
// The models are deliberately simple but reproduce the behaviours the
// paper's run-time optimizations react to: data-dependent relative device
// performance, copy/computation overlap on the PCIe link with a
// concurrency-dependent saturation point, and request/response latency on
// the cluster network.
package hw

import (
	"fmt"

	"repro/internal/sim"
)

// Kind identifies a class of processing device. The paper's techniques
// generalize to any number of device classes; CPU and GPU are the two used
// in the evaluation.
type Kind int

const (
	// CPU is a general-purpose core.
	CPU Kind = iota
	// GPU is an accelerator reached through a PCIe link.
	GPU
	numKinds
)

// Kinds lists all device kinds in a stable order.
var Kinds = []Kind{CPU, GPU}

// NumKinds is the number of device classes.
const NumKinds = int(numKinds)

func (k Kind) String() string {
	switch k {
	case CPU:
		return "CPU"
	case GPU:
		return "GPU"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Interval is a closed span of virtual time during which a device was busy.
type Interval struct {
	Start, End sim.Time
}

// Device is a single processing unit. Occupancy is modeled with a
// counted resource; by default a device executes one task at a time, but
// SetConcurrency enables the concurrent-kernel mode the paper lists as
// future work ("the concurrent execution of multiple tasks on the same
// GPU"): up to `slots` tasks run at once, each slowed by the contention
// penalty per co-runner.
type Device struct {
	NodeID int
	Kind   Kind
	Index  int // index among devices of the same kind on the node

	k              *sim.Kernel
	res            *sim.Resource
	active         int
	penalty        float64
	slow           float64 // fault-injected cost multiplier (1 = healthy)
	busy           sim.Time
	intervals      []Interval
	recordInterval bool
	free           []*devRun // idle RunThen records for reuse
}

// NewDevice creates a device attached to no particular node; Cluster wiring
// sets NodeID. It records no busy intervals until SetRecordIntervals(true).
func NewDevice(k *sim.Kernel, kind Kind, index int) *Device {
	return &Device{
		Kind:  kind,
		Index: index,
		k:     k,
		res:   sim.NewResource(k, 1),
		slow:  1,
	}
}

// ScaleCost multiplies the device's cost multiplier by f (> 0), modeling a
// transient slowdown (thermal throttling, a co-located job, a flaky board).
// Fault injectors apply a factor at a window's start and its reciprocal at
// the end; factors compose multiplicatively across overlapping windows. The
// multiplier is sampled when a task starts running.
func (d *Device) ScaleCost(f float64) {
	if f <= 0 {
		panic("hw: cost scale factor must be positive")
	}
	d.slow *= f
}

// CostScale returns the current fault-injected cost multiplier.
func (d *Device) CostScale() float64 { return d.slow }

// SetRecordIntervals toggles collection of busy intervals, off by default:
// a run appends one Interval per RunThen, which only their readers
// (Intervals: Gantt charts, trace device tracks, utilization over time)
// need. Turn it on before the run whose intervals are to be read.
func (d *Device) SetRecordIntervals(on bool) { d.recordInterval = on }

// SetConcurrency allows up to slots concurrent tasks; each task's duration
// is inflated by penalty for every other task active when it starts
// (penalty 0.7 and slots 2 means two co-running kernels each take 1.7x
// their solo time — a ~18% aggregate throughput gain, in line with what
// concurrent kernels buy on real hardware for small kernels). Must be
// called before any RunThen.
func (d *Device) SetConcurrency(slots int, penalty float64) {
	if slots < 1 {
		panic("hw: concurrency slots must be >= 1")
	}
	if penalty < 0 {
		panic("hw: negative concurrency penalty")
	}
	d.res = sim.NewResource(d.k, slots)
	d.penalty = penalty
}

// Concurrency returns the device's concurrent-task capacity.
func (d *Device) Concurrency() int { return d.res.Capacity() }

// RunThen occupies the device for dur of virtual time (inflated under
// concurrent execution), waiting first if all slots are busy (FIFO), and
// then runs next. Steps must return the directive RunThen returns. It runs
// on a pooled record with steps bound once, so it allocates nothing in
// steady state (a recorded busy interval aside).
func (d *Device) RunThen(e *sim.Env, dur sim.Time, next sim.Step) sim.Cont {
	var r *devRun
	if k := len(d.free); k > 0 {
		r = d.free[k-1]
		d.free = d.free[:k-1]
	} else {
		r = &devRun{d: d}
		r.startStep, r.endStep = r.start, r.end
	}
	r.dur, r.next = dur, next
	return d.res.AcquireThen(e, r.startStep)
}

// devRun is the state of one RunThen.
type devRun struct {
	d    *Device
	dur  sim.Time
	at   sim.Time
	next sim.Step
	// Bound once when the record is made: start and end as Steps.
	startStep, endStep sim.Step
}

// start runs once a slot is ours: the duration is inflated by the
// co-runners active now and by the fault-injected slowdown. A zero
// duration still yields to the events due at this instant.
func (r *devRun) start(e *sim.Env) sim.Cont {
	d := r.d
	r.dur *= sim.Time(1 + d.penalty*float64(d.active))
	r.dur *= sim.Time(d.slow) // exact no-op while healthy (slow == 1)
	d.active++
	r.at = e.Now()
	return sim.After(r.dur, r.endStep)
}

// end frees the slot, accounts the run and returns the record to the free
// list before running the caller's step.
func (r *devRun) end(e *sim.Env) sim.Cont {
	d, next := r.d, r.next
	d.active--
	d.res.Release()
	d.busy += r.dur
	if d.recordInterval {
		d.intervals = append(d.intervals, Interval{Start: r.at, End: e.Now()})
	}
	r.next = nil
	d.free = append(d.free, r)
	return next(e)
}

// Busy returns the accumulated busy time.
func (d *Device) Busy() sim.Time { return d.busy }

// Intervals returns the recorded busy intervals (nil if recording is off).
func (d *Device) Intervals() []Interval { return d.intervals }

// Name returns a stable human-readable identifier like "n3/GPU0".
func (d *Device) Name() string {
	return fmt.Sprintf("n%d/%s%d", d.NodeID, d.Kind, d.Index)
}
