package obs

// Point-in-time, copy-on-read views of the registry for the live serving
// path. Snapshot takes the registry mutex, copies every aggregate, and
// closes the time-weighted integrals at the snapshot instant without
// mutating the live state — so a /metrics scrape mid-run sees the same
// shapes Finish/Summary would produce, while the hooks keep feeding the
// registry. Output order is deterministic: every slice is sorted by key.

import (
	"slices"

	"repro/internal/sim"
)

// CounterSnap is one counter's state at snapshot time.
type CounterSnap struct {
	Key string
	N   int64
	Sum float64
}

// GaugeSnap is one gauge's state at snapshot time. Mean is time-weighted
// over [0, At] with the integral closed at the snapshot instant.
type GaugeSnap struct {
	Key  string
	Last float64
	Mean float64
	Min  float64
	Max  float64
}

// HistSnap is one time-weighted histogram's state at snapshot time.
// Levels are the observed integer values in ascending order; Weights[i] is
// the virtual time spent at Levels[i], with the current level's span closed
// at the snapshot instant.
type HistSnap struct {
	Key     string
	Levels  []int
	Weights []float64
}

// Total is the histogram's total weight.
func (h HistSnap) Total() float64 {
	var t float64
	for _, w := range h.Weights {
		t += w
	}
	return t
}

// Snapshot is a consistent copy of the registry at one instant.
type Snapshot struct {
	At       sim.Time
	Counters []CounterSnap
	Gauges   []GaugeSnap
	Hists    []HistSnap
}

// Snapshot copies the registry under the mutex, closing every time-weighted
// aggregate at the given instant. The live aggregates are not mutated, so
// snapshots compose with a later Finish and with each other. Slices are
// sorted by key; for a fixed hook stream and instant the result is
// byte-identical run to run.
func (r *Registry) Snapshot(at sim.Time) Snapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Snapshot{
		At:       at,
		Counters: make([]CounterSnap, 0, len(r.counters)),
		Gauges:   make([]GaugeSnap, 0, len(r.gauges)),
		Hists:    make([]HistSnap, 0, len(r.hists)),
	}
	for _, k := range sortedKeys(r.counters) {
		c := r.counters[k]
		s.Counters = append(s.Counters, CounterSnap{Key: k, N: c.N, Sum: c.Sum})
	}
	for _, k := range sortedKeys(r.gauges) {
		g := r.gauges[k]
		integral := g.integral
		if g.set && at > g.lastT {
			integral += g.lastV * float64(at-g.lastT)
		}
		mean := 0.0
		if g.set && at > 0 {
			mean = integral / float64(at)
		}
		s.Gauges = append(s.Gauges, GaugeSnap{Key: k, Last: g.lastV, Mean: mean, Min: g.min, Max: g.max})
	}
	for _, k := range sortedKeys(r.hists) {
		h := r.hists[k]
		var levels []int
		var weights []float64
		for v, w := range h.levels {
			levels = append(levels, v)
			weights = append(weights, w)
		}
		if h.set && at > h.lastT {
			i, ok := slices.BinarySearch(levels, h.lastV)
			if !ok {
				levels = slices.Insert(levels, i, h.lastV)
				weights = slices.Insert(weights, i, 0)
			}
			weights[i] += float64(at - h.lastT)
		}
		s.Hists = append(s.Hists, HistSnap{Key: k, Levels: levels, Weights: weights})
	}
	return s
}
