// Package simtest is shared test infrastructure for simulation-level tests:
// a recording hook-bus sink with trace assertion helpers, golden-file
// comparison behind one test-only -update flag, standard cluster scenario
// builders, and a fault-schedule composition helper. Golden, differential
// and chaos tests across internal/core, internal/hw, internal/sim,
// internal/serve and internal/experiments all need the same moves —
// subscribe every hook, render records into a stable line form, and compare
// a run record for record against another run or a checked-in file — so
// they live here once.
//
// The package imports core and fault, so tests using it must be external
// test packages (package foo_test); that is also what keeps simtest out of
// production binaries.
package simtest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Recorder captures every hook-bus record of a runtime as one rendered line
// per record, preserving the global emission order. The line format is
// "<kind> <record %+v>" with kinds process, target, depth, demand, send,
// emit, deliver, fault, admit, and span — stable across runs, so two
// equivalent executions produce byte-identical traces.
type Recorder struct {
	lines []string
}

// Record subscribes a fresh Recorder to every hook of rt. It overwrites
// rt.Hooks; call it before Run and before any other hook attachment.
func Record(rt *core.Runtime) *Recorder {
	r := &Recorder{}
	add := func(kind string, rec any) {
		r.lines = append(r.lines, fmt.Sprintf("%s %+v", kind, rec))
	}
	rt.Hooks = core.Bus{
		Process:    func(rec core.ProcRecord) { add("process", rec) },
		Target:     func(rec core.TargetRecord) { add("target", rec) },
		QueueDepth: func(rec core.QueueDepthRecord) { add("depth", rec) },
		Demand:     func(rec core.DemandRecord) { add("demand", rec) },
		Send:       func(rec core.SendRecord) { add("send", rec) },
		Emit:       func(rec core.EmitRecord) { add("emit", rec) },
		Deliver:    func(rec core.DeliverRecord) { add("deliver", rec) },
		Fault:      func(rec core.FaultRecord) { add("fault", rec) },
		Admit:      func(rec core.AdmitRecord) { add("admit", rec) },
		Span:       func(rec core.SpanRecord) { add("span", rec) },
	}
	return r
}

// Lines returns the recorded trace so far, in emission order.
func (r *Recorder) Lines() []string { return r.lines }

// Count returns how many recorded lines have the given kind prefix
// ("fault", "span", ...).
func (r *Recorder) Count(kind string) int {
	n := 0
	for _, l := range r.lines {
		if strings.HasPrefix(l, kind+" ") {
			n++
		}
	}
	return n
}

// SameTimes asserts two completion-time vectors agree element for element —
// the comparison every hardware-model equivalence test makes between a
// blocking reference run and a continuation-flavoured run.
func SameTimes(t testing.TB, label string, got, ref []sim.Time) {
	t.Helper()
	if len(got) != len(ref) {
		t.Fatalf("%s: %d completion times, reference has %d", label, len(got), len(ref))
	}
	for i := range ref {
		if got[i] != ref[i] {
			t.Errorf("%s: process %d finished at %v, reference %v", label, i, got[i], ref[i])
		}
	}
}

// TwoNodeCluster is the standard heterogeneous scenario: one CPU-only node
// and one GPU node, two cores each, default network.
func TwoNodeCluster(k *sim.Kernel) *hw.Cluster {
	return hw.NewCluster(k, []hw.NodeSpec{
		{CPUCores: 2},
		{CPUCores: 2, HasGPU: true},
	}, nil)
}

// ContendedPair is the standard two-node network-contention scenario used
// by the hardware equivalence tests: CPU-only nodes joined by a 100 Mbit/s,
// 100 microsecond link.
func ContendedPair(k *sim.Kernel) *hw.Cluster {
	return hw.NewCluster(k, []hw.NodeSpec{hw.CPUOnlyNode(), hw.CPUOnlyNode()},
		&hw.NetworkConfig{BandwidthBps: 1e8, Latency: 100 * sim.Microsecond})
}

// Compose parses each fault spec and concatenates the schedules in argument
// order — the chaos-composition helper for layering scripted faults (a
// crash here, a slowdown there) into one Apply-able schedule.
func Compose(t testing.TB, specs ...string) *fault.Schedule {
	t.Helper()
	out := &fault.Schedule{}
	for _, spec := range specs {
		s, err := fault.Parse(spec)
		if err != nil {
			t.Fatalf("simtest: fault spec %q: %v", spec, err)
		}
		out.Events = append(out.Events, s.Events...)
	}
	return out
}

// Apply composes the given fault specs and applies them to rt, failing the
// test on error. Call between Connect and Run.
func Apply(t testing.TB, rt *core.Runtime, specs ...string) {
	t.Helper()
	if err := fault.Apply(rt, Compose(t, specs...)); err != nil {
		t.Fatalf("simtest: apply faults: %v", err)
	}
}
