// Package arrival generates open-system request arrival processes for the
// serving mode: Poisson, bursty/diurnal (rate-modulated Poisson), uniform,
// and trace-driven arrivals. A Schedule is parsed from the -arrivals CLI
// spec (Parse) or built directly; Times expands it into a sorted list of
// virtual arrival instants, deterministically from (schedule, seed), so a
// serving sweep is byte-for-byte reproducible on any worker count.
//
// The expansion is a pure function: no global state, no wall clock. Pace
// then replays the instants against any sim.Clock — the virtual clock
// inside an experiment, or a wall clock for a real-time demo.
package arrival

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"repro/internal/parallel"
	"repro/internal/sim"
)

// Kind enumerates the arrival-process classes.
type Kind int

const (
	// Poisson is a homogeneous Poisson process: exponential inter-arrival
	// times at a fixed rate.
	Poisson Kind = iota
	// Burst is a diurnally modulated Poisson process: the instantaneous
	// rate swings sinusoidally between the base rate and Peak times it,
	// with the given Period, generated by thinning.
	Burst
	// Trace replays an explicit list of arrival instants.
	Trace
	// Uniform is a deterministic equally spaced process (arrival k at
	// Start + k/Rate) — the closed-form reference for tests and overload
	// studies.
	Uniform
)

func (k Kind) String() string {
	switch k {
	case Poisson:
		return "poisson"
	case Burst:
		return "burst"
	case Trace:
		return "trace"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// maxCount bounds one process's arrival count, keeping spec-driven
// expansion (and fuzzed parses) within sane memory.
const maxCount = 1_000_000

// Proc is one arrival process within a schedule.
type Proc struct {
	Kind Kind

	// Rate is the base arrival rate in requests per second (Poisson,
	// Burst, Uniform).
	Rate float64
	// N is the number of arrivals the process contributes (Poisson,
	// Burst, Uniform).
	N int
	// Start offsets the process's origin in virtual time.
	Start sim.Time

	// Peak is the burst process's peak-to-base rate ratio (>= 1).
	Peak float64
	// Period is the burst process's modulation period.
	Period sim.Time

	// At is the trace process's explicit arrival instants (non-decreasing).
	At []sim.Time
}

// Schedule is a composition of arrival processes; its expansion is the
// time-sorted merge of every process's arrivals.
type Schedule struct {
	Procs []Proc
}

// Empty reports whether the schedule generates no arrivals.
func (s *Schedule) Empty() bool { return s == nil || s.Count() == 0 }

// Count is the total number of arrivals the schedule generates.
func (s *Schedule) Count() int {
	if s == nil {
		return 0
	}
	n := 0
	for _, p := range s.Procs {
		if p.Kind == Trace {
			n += len(p.At)
		} else {
			n += p.N
		}
	}
	return n
}

// String renders the schedule in the canonical -arrivals spec syntax; the
// output parses back to an identical schedule.
func (s *Schedule) String() string {
	if s == nil {
		return ""
	}
	parts := make([]string, 0, len(s.Procs))
	for _, p := range s.Procs {
		parts = append(parts, p.String())
	}
	return strings.Join(parts, ";")
}

// String renders one process in spec syntax.
func (p Proc) String() string {
	var b strings.Builder
	b.WriteString(p.Kind.String())
	b.WriteByte(':')
	switch p.Kind {
	case Poisson, Uniform:
		fmt.Fprintf(&b, "rate=%s,n=%d", ftoa(p.Rate), p.N)
	case Burst:
		fmt.Fprintf(&b, "rate=%s,n=%d,peak=%s,period=%s",
			ftoa(p.Rate), p.N, ftoa(p.Peak), ftoa(float64(p.Period)))
	case Trace:
		b.WriteString("at=")
		for i, at := range p.At {
			if i > 0 {
				b.WriteByte('/')
			}
			b.WriteString(ftoa(float64(at)))
		}
	}
	if p.Kind != Trace && p.Start != 0 {
		fmt.Fprintf(&b, ",start=%s", ftoa(float64(p.Start)))
	}
	return b.String()
}

// Times expands the schedule into the sorted arrival instants. Each process
// draws from its own RNG stream derived from (seed, process index), so
// reordering unrelated processes in the spec never perturbs another
// process's draws, and the same (schedule, seed) pair always yields the
// identical instants — on any host, any worker count, serial or parallel.
func (s *Schedule) Times(seed int64) []sim.Time {
	if s == nil {
		return nil
	}
	out := make([]sim.Time, 0, s.Count())
	for i, p := range s.Procs {
		out = append(out, p.times(parallel.PointSeed(seed, i))...)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a] < out[b] })
	return out
}

// times expands one process with its derived seed.
func (p Proc) times(seed int64) []sim.Time {
	switch p.Kind {
	case Trace:
		return append([]sim.Time(nil), p.At...)
	case Uniform:
		out := make([]sim.Time, p.N)
		interval := sim.Time(1 / p.Rate)
		for k := range out {
			out[k] = p.Start + sim.Time(k)*interval
		}
		return out
	case Poisson:
		rng := rand.New(rand.NewSource(seed))
		out := make([]sim.Time, 0, p.N)
		t := p.Start
		for len(out) < p.N {
			t += sim.Time(rng.ExpFloat64() / p.Rate)
			out = append(out, t)
		}
		return out
	case Burst:
		// Thinning (Lewis-Shedler): candidates arrive at the peak rate and
		// survive with probability rate(t)/rateMax, so the accepted stream
		// follows the sinusoidal intensity exactly.
		rng := rand.New(rand.NewSource(seed))
		rateMax := p.Rate * p.Peak
		out := make([]sim.Time, 0, p.N)
		t := p.Start
		for len(out) < p.N {
			t += sim.Time(rng.ExpFloat64() / rateMax)
			if rng.Float64()*rateMax <= p.rateAt(t) {
				out = append(out, t)
			}
		}
		return out
	default:
		panic(fmt.Sprintf("arrival: unknown process kind %d", int(p.Kind)))
	}
}

// rateAt is the burst process's instantaneous rate: the base rate at the
// trough, Peak times it at the crest, sinusoidal in between.
func (p Proc) rateAt(t sim.Time) float64 {
	phase := float64(t-p.Start) / float64(p.Period)
	swing := (1 - math.Cos(2*math.Pi*phase)) / 2
	return p.Rate * (1 + (p.Peak-1)*swing)
}

// ftoa formats a float in the shortest form that round-trips.
func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
