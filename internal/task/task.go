// Package task defines the unit of work flowing through the dataflow
// runtime: a data buffer (an "event" in Anthill terms) together with the
// metadata the run-time optimizations need — input parameters for the
// performance estimator, transfer sizes for the PCIe/network models, and
// per-device scheduling weights.
package task

import (
	"repro/internal/hw"
	"repro/internal/sim"
)

// CostFunc gives the pure computation time of task t on a device class,
// excluding data transfers (which the runtime models separately through the
// PCIe link). This is where the data-dependent performance of the paper
// lives: the function is free to depend on the task's content. It receives
// the task it prices, so one function can serve every task of an
// application, reading what it needs (a payload, a parameter) from t
// rather than from a closure built per task.
type CostFunc func(t *Task, kind hw.Kind) sim.Time

// Task is one data buffer traveling down a stream.
type Task struct {
	// ID identifies the task; resubmitted (recalculated) work gets a new ID.
	ID uint64
	// Parent is the ID of the task whose processing created this one
	// (handler Forward/Resubmit), or 0 for buffers born at a source. The
	// chain of Parent links is the task's causal lineage, which the
	// attribution engine (internal/span) walks to extract critical paths.
	Parent uint64
	// Seq is the global FIFO ordering stamp, assigned when the task enters
	// a queue for the first time.
	Seq uint64
	// Params and Cats are the inputs to the performance estimator. The
	// runtime only reads them, so tasks may share one read-only slice.
	Params []float64
	Cats   []string
	// Size is the input data buffer size in bytes (drives network and
	// host-to-device transfer times); OutSize is the result size.
	Size    int64
	OutSize int64
	// Weight[k] is the estimated speedup of the task on device class k
	// relative to the baseline CPU core (CPU weight is always 1).
	Weight [hw.NumKinds]float64
	// Key[k] is the relative-advantage sort key used by weighted queues:
	// Weight[k] divided by the task's best weight on any *other* device
	// class. A device prefers (pops first) tasks with the highest Key for
	// it, which steers each task toward the device class where it is
	// comparatively strongest — the behaviour DDWRR and DBSA rely on.
	Key [hw.NumKinds]float64
	// Cost is the per-device compute time model.
	Cost CostFunc
	// Payload carries application data (opaque to the runtime).
	Payload any
	// Created is when the task was first enqueued.
	Created sim.Time
}

// SetUniformWeight marks the task as equally suited to every device class.
func (t *Task) SetUniformWeight() {
	for k := range t.Weight {
		t.Weight[k] = 1
		t.Key[k] = 1
	}
}

// ComputeKeys derives the relative-advantage keys from the weights. Weights
// must be positive; a zero weight is treated as 1 (no information).
func (t *Task) ComputeKeys() {
	w := t.Weight
	for k := range w {
		if w[k] <= 0 {
			w[k] = 1
		}
	}
	for k := range w {
		best := 0.0
		for j := range w {
			if j != k && w[j] > best {
				best = w[j]
			}
		}
		if best <= 0 {
			best = 1
		}
		t.Key[k] = w[k] / best
	}
	t.Weight = w
}
