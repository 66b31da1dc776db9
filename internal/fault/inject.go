package fault

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Apply validates a schedule against a runtime and spawns one simulation
// process per event; call it after wiring the filter graph and before
// Runtime.Run. A nil or empty schedule is a strict no-op — no processes are
// spawned, so a zero-fault run is byte-identical to one without the fault
// layer. Each process sleeps to its event's start time, applies the effect,
// and (for windowed faults) reverts it exactly at the window's end by
// applying the reciprocal, so overlapping windows compose and a drained run
// always ends with healthy hardware parameters.
func Apply(rt *core.Runtime, s *Schedule) error {
	if s.Empty() {
		return nil
	}
	crashes := make(map[string]map[int]bool)
	for i, ev := range s.Events {
		if err := validate(rt, ev, crashes); err != nil {
			return fmt.Errorf("fault: event %d (%s): %w", i, ev, err)
		}
	}
	for i, ev := range s.Events {
		ev := ev
		name := fmt.Sprintf("fault%d/%s", i, ev.Kind)
		// Injector processes are pure timers: wait for the event, apply,
		// wait out the window, revert.
		switch ev.Kind {
		case Slow:
			devs := slowTargets(rt, ev)
			rt.K.SpawnStep(name, func(e *sim.Env) sim.Cont {
				return sim.After(ev.At, func(e *sim.Env) sim.Cont {
					emitWindow(rt, e, ev, "slow", "begin")
					for _, d := range devs {
						d.ScaleCost(ev.Factor)
					}
					return sim.After(ev.Dur, func(e *sim.Env) sim.Cont {
						for _, d := range devs {
							d.ScaleCost(1 / ev.Factor)
						}
						emitWindow(rt, e, ev, "slow", "end")
						return sim.Done()
					})
				})
			})
		case Net:
			net := rt.Cluster.Net
			rt.K.SpawnStep(name, func(e *sim.Env) sim.Cont {
				return sim.After(ev.At, func(e *sim.Env) sim.Cont {
					emitWindow(rt, e, ev, "net", "begin")
					net.Degrade(ev.Node, ev.Latency, ev.Factor)
					return sim.After(ev.Dur, func(e *sim.Env) sim.Cont {
						net.Degrade(ev.Node, -ev.Latency, 1/ev.Factor)
						emitWindow(rt, e, ev, "net", "end")
						return sim.Done()
					})
				})
			})
		case PCIe:
			link := rt.Cluster.Nodes[ev.Node].Link
			rt.K.SpawnStep(name, func(e *sim.Env) sim.Cont {
				return sim.After(ev.At, func(e *sim.Env) sim.Cont {
					emitWindow(rt, e, ev, "pcie", "begin")
					link.Degrade(ev.Latency, ev.Factor)
					return sim.After(ev.Dur, func(e *sim.Env) sim.Cont {
						link.Degrade(-ev.Latency, 1/ev.Factor)
						emitWindow(rt, e, ev, "pcie", "end")
						return sim.Done()
					})
				})
			})
		case Crash:
			f, _ := rt.FilterByName(ev.Filter) // existence checked in validate
			rt.K.SpawnStep(name, func(e *sim.Env) sim.Cont {
				return sim.After(ev.At, func(e *sim.Env) sim.Cont {
					rt.CrashInstance(e, f, ev.Instance)
					return sim.Done()
				})
			})
		}
	}
	return nil
}

// emitWindow publishes a windowed hardware fault's begin/end on the
// runtime's hook bus (crash events fire from core.CrashInstance instead).
func emitWindow(rt *core.Runtime, e *sim.Env, ev Event, kind, phase string) {
	rt.EmitFault(core.FaultRecord{
		Kind: kind, Phase: phase, At: e.Now(), Node: ev.Node,
		Instance: -1, Detail: ev.String(),
	})
}

// validate checks one event against the runtime's topology; crashes
// accumulates crash targets so duplicate crashes and the loss of a filter's
// last transparent copy are rejected up front.
func validate(rt *core.Runtime, ev Event, crashes map[string]map[int]bool) error {
	switch ev.Kind {
	case Slow, Net, PCIe:
		if ev.Node < 0 || ev.Node >= len(rt.Cluster.Nodes) {
			return fmt.Errorf("node %d out of range [0, %d)", ev.Node, len(rt.Cluster.Nodes))
		}
		if ev.Dur <= 0 {
			return fmt.Errorf("window length must be > 0")
		}
		if ev.Factor <= 0 {
			return fmt.Errorf("multiplier must be > 0")
		}
		if ev.Kind == PCIe && rt.Cluster.Nodes[ev.Node].Link == nil {
			return fmt.Errorf("node %d has no PCIe link", ev.Node)
		}
		if ev.Kind == Slow {
			switch ev.Dev {
			case DevAll, int(hw.CPU):
			case int(hw.GPU):
				if rt.Cluster.Nodes[ev.Node].GPU == nil {
					return fmt.Errorf("node %d has no GPU", ev.Node)
				}
			default:
				return fmt.Errorf("unknown device class %d", ev.Dev)
			}
		}
	case Crash:
		if err := rt.CheckCrashTarget(ev.Filter, ev.Instance); err != nil {
			return err
		}
		m := crashes[ev.Filter]
		if m == nil {
			m = make(map[int]bool)
			crashes[ev.Filter] = m
		}
		if m[ev.Instance] {
			return fmt.Errorf("instance %d of %q crashes twice", ev.Instance, ev.Filter)
		}
		m[ev.Instance] = true
		f, _ := rt.FilterByName(ev.Filter)
		if len(m) >= f.InstanceCount() {
			return fmt.Errorf("schedule crashes every instance of %q; at least one must survive", ev.Filter)
		}
	default:
		return fmt.Errorf("unknown fault kind %d", int(ev.Kind))
	}
	if ev.At < 0 {
		return fmt.Errorf("start time must be >= 0")
	}
	return nil
}

// slowTargets resolves a Slow event's device set.
func slowTargets(rt *core.Runtime, ev Event) []*hw.Device {
	node := rt.Cluster.Nodes[ev.Node]
	var out []*hw.Device
	if ev.Dev == DevAll || ev.Dev == int(hw.CPU) {
		out = append(out, node.CPUs...)
	}
	if (ev.Dev == DevAll || ev.Dev == int(hw.GPU)) && node.GPU != nil {
		out = append(out, node.GPU)
	}
	return out
}
