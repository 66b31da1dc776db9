package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// releaseLedger is the application side of FilterSpec.Release in a test: it
// hands released records out again the way a slab would, poisons each one
// until it is reborn, and checks every touch of a record against the
// contract — released once, after its ProcRecord, never while the runtime
// still holds it.
type releaseLedger struct {
	t        *testing.T
	free     []*task.Task
	released map[*task.Task]bool // the records in free
	procs    map[uint64]int      // ProcRecords per task ID
	rels     map[uint64]int      // releases per task ID
	passes   map[uint64]int      // processings whose handler returned the input
	returned *task.Task          // the input the last handler returned, if it did
	births   int
	reborn   int // births from a released record
}

func newReleaseLedger(t *testing.T) *releaseLedger {
	return &releaseLedger{t: t, released: map[*task.Task]bool{},
		procs: map[uint64]int{}, rels: map[uint64]int{}, passes: map[uint64]int{}}
}

// born makes a task, from a released record when there is one. Its GPU
// weight, and so its GPU cost, varies with the birth count, so the sorted
// queues and the scheduler have real choices to make.
func (l *releaseLedger) born() *task.Task {
	var t *task.Task
	if n := len(l.free); n > 0 {
		t = l.free[n-1]
		l.free = l.free[:n-1]
		delete(l.released, t)
		l.reborn++
	} else {
		t = &task.Task{}
	}
	l.births++
	t.Size, t.OutSize = 4000, 100
	t.Weight[hw.CPU] = 1
	t.Weight[hw.GPU] = float64(1 + 4*(l.births%4))
	t.ComputeKeys()
	t.Cost = func(t *task.Task, kind hw.Kind) sim.Time {
		l.check(t, "Cost")
		return sim.Millisecond / sim.Time(t.Weight[kind])
	}
	return t
}

// check fails the test if the runtime touches a record it released.
func (l *releaseLedger) check(t *task.Task, where string) {
	if l.released[t] {
		l.t.Errorf("%s: touched a released record", where)
	}
}

func (l *releaseLedger) release(t *task.Task) {
	switch {
	case l.released[t]:
		l.t.Errorf("task %d: record released twice", t.ID)
		return
	case t == l.returned:
		l.t.Errorf("task %d: released although its handler returned it", t.ID)
	case l.procs[t.ID] == 0:
		l.t.Errorf("task %d: released before its ProcRecord", t.ID)
	case l.rels[t.ID] != 0:
		l.t.Errorf("task %d: released twice", t.ID)
	}
	l.rels[t.ID]++
	*t = task.Task{}
	l.released[t] = true
	l.free = append(l.free, t)
}

// ledgerSched is ODDS's relative-advantage ranking as a pluggable
// scheduler that checks each record it is shown: Score and ObservePop see
// queued records, ObserveService processed ones before their release.
type ledgerSched struct{ l *releaseLedger }

func (s ledgerSched) Name() string { return "ledger" }

func (s ledgerSched) Score(t *task.Task, c policy.Consumer) float64 {
	s.l.check(t, "Score")
	return t.Key[c.Kind]
}

func (s ledgerSched) PickSender(_ policy.Consumer, _ int, _ func(int) policy.PeerView, rr int) int {
	return rr
}

func (s ledgerSched) ObservePop(_ policy.Consumer, t *task.Task) { s.l.check(t, "ObservePop") }

func (s ledgerSched) ObserveService(_ policy.Consumer, t *task.Task, _ sim.Time) {
	s.l.check(t, "ObserveService")
}

// TestReleaseContract runs a lazy source -> work -> sink pipeline whose
// processing filters hand their inputs back through Release, with instance
// 1 of work crashed mid-run. The work handler resubmits a new task for
// some inputs and returns its own input, forwarded or resubmitted, for
// others. Every processing must be released exactly once, after its
// ProcRecord, except the ones whose handler returned the input; no record
// may be released while queued, in flight or reclaimed, and none may be
// touched after its release, although the ledger hands it out again.
func TestReleaseContract(t *testing.T) {
	for _, tc := range []struct {
		name  string
		sched bool
	}{
		{"ODDS", false},
		{"ODDS+Sched", true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const nTasks = 120
			l := newReleaseLedger(t)
			pol := policy.ODDS()
			if tc.sched {
				pol.Sched = ledgerSched{l}
			}
			k := sim.NewKernel(1)
			c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true}, {CPUCores: 2, HasGPU: true}}, nil)
			rt := New(c, nil)
			src := rt.AddFilter(FilterSpec{
				Name:         "source",
				Placement:    []int{0, 1},
				SourceCount:  func(int) int { return nTasks / 2 },
				SourceMake:   func(int, int) *task.Task { return l.born() },
				SourceBuffer: 4,
			})
			work := rt.AddFilter(FilterSpec{
				Name: "work", Placement: []int{0, 1}, UseGPU: true, CPUWorkers: 1,
				AsyncCopy: true, MaxConcurrentCopies: 4, Release: l.release,
				Handler: func(ctx *Ctx, t *task.Task) Action {
					l.check(t, "work handler")
					l.returned = nil
					switch {
					case t.Parent != 0: // a resubmitted task or a returned input: done
						return Action{}
					case t.ID%5 == 0:
						l.returned = t
						return Action{Forward: []*task.Task{t}}
					case t.ID%7 == 0:
						l.returned = t
						return Action{Resubmit: []*task.Task{t}}
					case t.ID%3 == 0:
						return Action{Resubmit: []*task.Task{l.born()}}
					}
					return Action{}
				},
			})
			sink := rt.AddFilter(FilterSpec{
				Name: "sink", Placement: []int{0, 1}, CPUWorkers: 1, Release: l.release,
				Handler: func(ctx *Ctx, t *task.Task) Action {
					l.check(t, "sink handler")
					l.returned = nil
					return Action{}
				},
			})
			rt.Connect(src, work, pol)
			rt.Connect(work, sink, policy.ODDS())
			Subscribe(&rt.Hooks.Process, func(r ProcRecord) {
				if l.rels[r.TaskID] != 0 {
					t.Errorf("task %d: ProcRecord after its release", r.TaskID)
				}
				l.procs[r.TaskID]++
				if l.returned != nil && r.TaskID == l.returned.ID {
					l.passes[r.TaskID]++
				}
			})
			rt.K.SpawnStep("killer", func(e *sim.Env) sim.Cont {
				return sim.After(8*sim.Millisecond, func(e *sim.Env) sim.Cont {
					rt.CrashInstance(e, work, 1)
					return sim.Done()
				})
			})
			if _, err := rt.Run(); err != nil {
				t.Fatal(err)
			}
			if _, _, reenq := work.in[0].Stats(); reenq == 0 {
				t.Fatal("the crash re-enqueued nothing; reclaim path untested")
			}
			if l.reborn == 0 {
				t.Fatal("no released record was handed out again")
			}
			var passes int
			for id, n := range l.procs {
				if l.rels[id] != 1 {
					t.Errorf("task %d: processed %d times, released %d times, want once", id, n, l.rels[id])
				}
				if n != l.passes[id]+1 {
					t.Errorf("task %d: processed %d times with %d returns", id, n, l.passes[id])
				}
				passes += l.passes[id]
			}
			for id := range l.rels {
				if l.procs[id] == 0 {
					t.Errorf("task %d: released but never processed", id)
				}
			}
			if len(l.procs) != l.births || passes == 0 {
				t.Fatalf("%d tasks processed of %d born, %d returned inputs", len(l.procs), l.births, passes)
			}
		})
	}
}
