package arrival

import (
	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/task"
)

// Stats accumulates one driver's admission outcomes. The fields are final
// once the run completes; Offered == Accepted + Rejected always holds at
// drain, the serving analogue of the batch conservation invariants.
type Stats struct {
	// Offered is the number of arrivals the driver presented to Inject.
	Offered int
	// Accepted is the number admitted into the source's send queue.
	Accepted int
	// Rejected is the number shed by admission control at the queue bound.
	Rejected int
}

// Drive registers the arrival instants against a runtime before Run: it
// reserves their lineages and spawns a pacer process that injects one
// request per instant at the Open filter f, with mk(k) building the k-th
// request's task. Call it after AddFilter/Connect and before Run, exactly
// like fault.Apply. The returned Stats are complete when Run returns.
func Drive(rt *core.Runtime, f *core.Filter, times []sim.Time, mk func(k int) *task.Task) *Stats {
	st := &Stats{}
	rt.ReserveArrivals(int64(len(times)))
	if len(times) == 0 {
		return st
	}
	p := &pacer{rt: rt, f: f, times: times, mk: mk, st: st}
	p.wakeStep = p.wake
	rt.K.SpawnStep("arrivals/"+f.Name(), p.run)
	return st
}

// pacer is the state of Drive's process: the schedule and the index of the
// next arrival. times must be non-decreasing, as Times guarantees.
type pacer struct {
	rt       *core.Runtime
	f        *core.Filter
	times    []sim.Time
	mk       func(k int) *task.Task
	st       *Stats
	k        int
	wakeStep sim.Step // wake, bound once
}

// run injects every arrival that is due, without yielding, and waits for
// the next one: an arrival due now (or already past) goes in on the same
// dispatch as the one before it, so equal instants are injected together.
func (p *pacer) run(e *sim.Env) sim.Cont {
	for p.k < len(p.times) {
		if d := p.times[p.k] - e.Now(); d > 0 {
			return sim.After(d, p.wakeStep)
		}
		p.inject(e)
	}
	return sim.Done()
}

// wake injects the arrival it waited for — now is its instant, up to the
// rounding of now+d — and goes on with run.
func (p *pacer) wake(e *sim.Env) sim.Cont {
	p.inject(e)
	return p.run(e)
}

// inject presents arrival k to the filter's admission control.
func (p *pacer) inject(e *sim.Env) {
	p.st.Offered++
	if p.rt.Inject(e, p.f, p.mk(p.k)) {
		p.st.Accepted++
	} else {
		p.st.Rejected++
	}
	p.k++
}
