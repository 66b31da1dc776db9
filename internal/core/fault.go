package core

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// This file implements the fail-stop crash model used by internal/fault.
//
// A crash takes effect at an event boundary of the simulation: the injector
// process runs while every worker of the victim is either parked on a queue
// or sleeping inside a device/network call, so there is exactly one
// well-defined owner for every buffer in the system. Recovery follows the
// sender-side retransmit-buffer discipline of reliable dataflow runtimes:
// a producer keeps a buffer until its consumer finishes it, so when a
// consumer dies the producer simply requeues its copy — we model that as
// moving the buffer back into a live upstream send queue with no extra
// network cost (the bytes never left the producer's memory).

// CrashInstance fail-stops one transparent copy of a processing filter:
// the instance stops accepting and serving work, every buffer queued at it
// is re-enqueued at a surviving upstream sender, its own un-sent output is
// redistributed to surviving sibling copies, and any event it is currently
// servicing is lost (reclaimed upstream when the worker observes the crash).
// Crashing an already-dead instance, or crashing after the run completed,
// is a no-op. Panics on illegal targets — use Runtime.CheckCrashTarget (or
// fault.Apply, which does) to validate schedules up front.
func (rt *Runtime) CrashInstance(e *sim.Env, f *Filter, idx int) {
	if idx < 0 || idx >= len(f.instances) {
		panic(fmt.Sprintf("core: filter %q has %d instances, cannot crash %d",
			f.Name(), len(f.instances), idx))
	}
	inst := f.instances[idx]
	if inst.dead || rt.track.done.Fired() {
		return
	}
	if f.spec.Handler == nil {
		panic(fmt.Sprintf("core: filter %q is a source; only processing filters can crash", f.Name()))
	}
	for _, s := range f.in {
		if s.labelFn != nil {
			panic(fmt.Sprintf("core: filter %q consumes a labeled stream; its instances cannot crash", f.Name()))
		}
	}
	inst.dead = true
	inst.diedAt = e.Now()
	rt.EmitFault(FaultRecord{
		Kind: "crash", Phase: "crash", At: e.Now(), Node: inst.node.ID,
		Filter: f.Name(), Instance: idx,
		Detail: fmt.Sprintf("crash:filter=%s,inst=%d", f.Name(), idx),
	})
	// Evacuate delivered-but-unprocessed input buffers back upstream.
	for qi, is := range inst.inputs {
		for {
			t := is.queue.PopFor(hw.CPU) // kind is irrelevant: drain everything
			if t == nil {
				break
			}
			inst.noteInputDepth(qi)
			inst.creditFetcher(t) // wakeAll below notifies
			is.s.stats.delivered--
			is.s.stats.reenqueued++
			inst.liveUpstream(qi).out.push(t)
		}
	}
	// Redistribute un-sent output to surviving siblings. The sender process
	// itself stays alive as a tombstone responder: with its queue empty it
	// answers every in-flight request with an empty message (or EOF once the
	// run completes), so no consumer blocks on a reply that never comes.
	if inst.out != nil {
		var sibs []*Instance
		for _, si := range f.instances {
			if !si.dead {
				sibs = append(sibs, si)
			}
		}
		rr := 0
		drain := func(q *policy.Queue, part int) {
			for {
				t := q.PopFor(hw.CPU)
				if t == nil {
					break
				}
				inst.out.took(t, part)
				if len(sibs) == 0 {
					panic(fmt.Sprintf("core: crash of %s/%d strands output buffers: no live sibling",
						f.Name(), idx))
				}
				sibs[rr%len(sibs)].out.push(t)
				rr++
			}
		}
		drain(inst.out.queue, -1)
		for pi, p := range inst.out.parts {
			drain(p, pi)
		}
	}
	inst.wakeAll()
}

// liveUpstream picks a surviving producer instance of the stream feeding
// input qi, rotating deterministically so reclaimed buffers spread across
// the survivors. Panics when none survives — fault.Apply keeps at least one
// transparent copy of every filter alive, so this is unreachable for
// validated schedules.
func (inst *Instance) liveUpstream(qi int) *Instance {
	from := inst.inputs[qi].s.from
	n := len(from.instances)
	for i := 0; i < n; i++ {
		cand := from.instances[(inst.reclaimRR+i)%n]
		if !cand.dead {
			inst.reclaimRR = (inst.reclaimRR + i + 1) % n
			return cand
		}
	}
	panic(fmt.Sprintf("core: no live instance of filter %q to reclaim a buffer to", from.Name()))
}

// abortReclaim returns an event a dead worker had in service to a surviving
// upstream sender: the delivery is undone and the buffer counts as
// re-enqueued, preserving delivered == sent - reenqueued.
func (w *worker) abortReclaim(qi int, t *task.Task) {
	is := w.inst.inputs[qi]
	is.s.stats.delivered--
	is.s.stats.reenqueued++
	w.inst.liveUpstream(qi).out.push(t)
}
