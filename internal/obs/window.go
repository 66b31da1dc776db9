package obs

// Sliding-window quantiles for the live serving path: a ring of per-window
// GK sketches keyed by the window index floor(at/width), so p50/p99/p999
// are reported over the last N windows instead of cumulatively since boot.
// Queries merge the live windows' summaries; the GK merge is deterministic
// (pure rank arithmetic over sorted entries), so a fixed insertion schedule
// yields byte-identical percentiles run to run.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Merge returns a new sketch summarizing the union of both inputs' samples;
// neither input is modified. Entries are merge-sorted by value and each
// entry's rank slack widens by the uncertainty of its successor in the
// other sketch — the standard GK merge — so the result is accurate to
// max(s.Eps(), o.Eps()) of the combined count. The merged summary is not
// recompressed: it is a transient query structure, and skipping the
// compression keeps the error bound airtight.
func (s *Sketch) Merge(o *Sketch) *Sketch {
	m := &Sketch{entries: make([]gkEntry, 0, len(s.entries)+len(o.entries))}
	m.mergeOf(s, o)
	return m
}

// mergeOf overwrites m with s.Merge(o), reusing m's entry storage. m must
// be neither s nor o.
func (m *Sketch) mergeOf(s, o *Sketch) {
	m.eps = math.Max(s.eps, o.eps)
	m.n = s.n + o.n
	m.sinceCompress = 0
	m.entries = m.entries[:0]
	if s.n == 0 || o.n == 0 {
		m.entries = append(m.entries, s.entries...)
		m.entries = append(m.entries, o.entries...)
		return
	}
	a, b := s.entries, o.entries
	var i, j int
	for i < len(a) || j < len(b) {
		var e gkEntry
		var other []gkEntry
		var oi int
		if j >= len(b) || (i < len(a) && a[i].v <= b[j].v) {
			e, other, oi = a[i], b, j
			i++
		} else {
			e, other, oi = b[j], a, i
			j++
		}
		if oi < len(other) {
			// The successor in the other sketch covers up to g+delta ranks
			// that may precede or follow e; widen e's slack accordingly.
			e.delta += other[oi].g + other[oi].delta - 1
		}
		m.entries = append(m.entries, e)
	}
	// The global extremes have exact ranks 1 and n: clamp their slack so the
	// merged summary satisfies the same invariants Add/compress maintain.
	m.entries[0].delta = 0
	m.entries[len(m.entries)-1].delta = 0
}

// WindowedSketch holds a ring of per-window GK sketches. A sample at time t
// lands in window floor(t/width); queries merge the windows still live at
// the query instant, i.e. the last `windows` of them. Reusing a ring slot
// for a new window index discards the expired window's samples.
//
// Queries fold the live windows oldest first. The fold of the windows
// before the current one changes only when the window slides or a sample
// lands outside the current window, so the sketch caches it and a query
// merges just the current window onto it. Queries update that cache, so a
// WindowedSketch is not safe for concurrent use.
type WindowedSketch struct {
	eps   float64
	width sim.Time
	slots []windowSlot

	// prefix is the fold of the live windows before window prefixCur, valid
	// while prefixOK; spare is its scratch twin during a rebuild, out the
	// summary Merged returns, and empty stands in for an absent window.
	prefixCur          int64
	prefixOK           bool
	prefix, spare, out *Sketch
	empty              *Sketch
}

// windowSlot pairs a ring slot's sketch with the window index it holds.
type windowSlot struct {
	idx int64 // floor(t/width) of the held window; -1 while empty
	sk  *Sketch
}

// NewWindowedSketch creates a sliding-window sketch with the given
// per-window rank-error bound, window width, and window count.
func NewWindowedSketch(eps float64, width sim.Time, windows int) *WindowedSketch {
	if width <= 0 {
		panic(fmt.Sprintf("obs: window width must be positive, got %v", width))
	}
	if windows < 1 {
		panic(fmt.Sprintf("obs: window count must be >= 1, got %d", windows))
	}
	w := &WindowedSketch{eps: eps, width: width, slots: make([]windowSlot, windows),
		prefix: NewSketch(eps), spare: NewSketch(eps), out: NewSketch(eps), empty: NewSketch(eps)}
	for i := range w.slots {
		w.slots[i] = windowSlot{idx: -1, sk: NewSketch(eps)}
	}
	return w
}

// index returns the window index floor(at/width) of instant at.
func (w *WindowedSketch) index(at sim.Time) int64 {
	return int64(math.Floor(float64(at / w.width)))
}

// slot returns the ring slot window idx maps to.
func (w *WindowedSketch) slot(idx int64) *windowSlot {
	n := int64(len(w.slots))
	return &w.slots[(idx%n+n)%n]
}

// window returns the sketch of window idx while its ring slot still holds
// it with samples, else nil.
func (w *WindowedSketch) window(idx int64) *Sketch {
	if slot := w.slot(idx); slot.idx == idx && slot.sk.n > 0 {
		return slot.sk
	}
	return nil
}

// Add inserts one sample observed at time at, which must be finite and
// >= 0. Samples need not be time-ordered within the live span, but an
// insert more than `windows` windows in the past lands in a reused slot and
// is treated as current.
func (w *WindowedSketch) Add(at sim.Time, v float64) {
	if !(at >= 0) || math.IsInf(float64(at), 0) {
		panic(fmt.Sprintf("obs: windowed sketch instants must be finite and >= 0, got %v", at))
	}
	idx := w.index(at)
	if idx != w.prefixCur {
		// Only the current window lies outside the cached prefix.
		w.prefixOK = false
	}
	slot := w.slot(idx)
	if slot.idx != idx {
		slot.idx = idx
		slot.sk = NewSketch(w.eps)
	}
	slot.sk.Add(v)
}

// Merged returns one sketch summarizing every sample in the windows live at
// time at, folded oldest window first. The summary is owned by the
// windowed sketch: it stays valid until the next Add or Merged and must not
// be modified.
func (w *WindowedSketch) Merged(at sim.Time) *Sketch {
	cur := w.index(at)
	if !w.prefixOK || w.prefixCur != cur {
		acc, next := w.prefix, w.spare
		acc.mergeOf(w.empty, w.empty) // the empty fold
		for off := cur - int64(len(w.slots)) + 1; off < cur; off++ {
			if sk := w.window(off); sk != nil {
				next.mergeOf(acc, sk)
				acc, next = next, acc
			}
		}
		w.prefix, w.spare = acc, next
		w.prefixCur, w.prefixOK = cur, true
	}
	last := w.window(cur)
	if last == nil {
		last = w.empty
	}
	w.out.mergeOf(w.prefix, last)
	return w.out
}

// Quantile returns the q-quantile over the windows live at time at.
func (w *WindowedSketch) Quantile(at sim.Time, q float64) float64 {
	return w.Merged(at).Quantile(q)
}

// Count returns the number of samples in the windows live at time at.
func (w *WindowedSketch) Count(at sim.Time) int64 {
	cur := w.index(at)
	var n int64
	for off := cur - int64(len(w.slots)) + 1; off <= cur; off++ {
		if sk := w.window(off); sk != nil {
			n += sk.n
		}
	}
	return n
}
