package obs

// Sliding-window quantiles for the live serving path: a ring of per-window
// GK sketches keyed by the window index floor(at/width), so p50/p99/p999
// are reported over the last N windows instead of cumulatively since boot.
// A read answers from the GK merge of the live windows' summaries without
// writing it out; the merge is deterministic (pure rank arithmetic over
// sorted entries), so a fixed insertion schedule yields byte-identical
// percentiles run to run.

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Merge returns a new sketch summarizing the union of both inputs' samples;
// neither input's summary changes beyond merging in its queued inserts,
// as any read does. Entries are merge-sorted by value and each
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
// be neither s nor o. The inputs' pending inserts are flushed first.
func (m *Sketch) mergeOf(s, o *Sketch) {
	s.flush()
	o.flush()
	m.eps = math.Max(s.eps, o.eps)
	m.n = s.n + o.n
	m.sinceCompress = 0
	m.pending = m.pending[:0]
	m.entries = m.entries[:0]
	if s.n == 0 || o.n == 0 {
		m.entries = append(m.entries, s.entries...)
		m.entries = append(m.entries, o.entries...)
		m.resync()
		return
	}
	// A tuple's g+delta grows by its successor's g+delta-1 at most.
	m.gd = s.gd + o.gd - 1
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
	m.min, m.max = m.entries[0].v, m.entries[len(m.entries)-1].v
}

// mergedQuantile returns s.Merge(o).Quantile(q) without building the
// merge. It walks both summaries in the merge's order (by value, ties to
// s first) and widens each tuple's delta on the fly exactly as mergeOf
// does: by its successor in the other summary, with the global minimum
// clamped to 0. A rank in the lower half is found walking forward; one in
// the upper half walking backward from the top under Quantile's stop rule,
// with the merge's bound s.gd+o.gd-1. Both inputs' pending inserts are
// flushed first.
func mergedQuantile(s, o *Sketch, q float64) float64 {
	s.flush()
	o.flush()
	switch {
	case o.n == 0:
		return s.Quantile(q)
	case s.n == 0:
		return o.Quantile(q)
	}
	a, b := s.entries, o.entries
	n := s.n + o.n
	r := rank(q, n)
	if 2*r <= n {
		var i, j int
		var rmin int64
		for {
			var e gkEntry
			if j == len(b) || (i < len(a) && a[i].v <= b[j].v) {
				e = a[i]
				if j < len(b) {
					e.delta += b[j].g + b[j].delta - 1
				}
				i++
			} else {
				e = b[j]
				if i < len(a) {
					e.delta += a[i].g + a[i].delta - 1
				}
				j++
			}
			if i+j == 1 { // the global minimum
				e.delta = 0
			}
			if rmin += e.g; rmin+e.delta >= r || (i == len(a) && j == len(b)) {
				return e.v
			}
		}
	}
	// Walking down, the successor of the tuple taken is the tuple of the
	// other summary taken last, and on ties o's tuple comes first. The top
	// tuple qualifies whatever its delta (its rmin is n), so best is set on
	// the first step.
	var best float64
	i, j, rmin, bound := len(a)-1, len(b)-1, n, s.gd+o.gd-1
	for (i >= 0 || j >= 0) && rmin+bound-1 >= r {
		var e gkEntry
		if i < 0 || (j >= 0 && b[j].v >= a[i].v) {
			e = b[j]
			if i+1 < len(a) {
				e.delta += a[i+1].g + a[i+1].delta - 1
			}
			j--
		} else {
			e = a[i]
			if j+1 < len(b) {
				e.delta += b[j+1].g + b[j+1].delta - 1
			}
			i--
		}
		if i < 0 && j < 0 { // the global minimum
			e.delta = 0
		}
		if rmin+e.delta >= r {
			best = e.v
		}
		rmin -= e.g
	}
	return best
}

// WindowedSketch holds a ring of per-window GK sketches. A sample at time t
// lands in window floor(t/width); reads answer over the windows still live
// at the read instant, i.e. the last `windows` of them. Reusing a ring slot
// for a new window index discards the expired window's samples.
//
// A read answers from the fold of the live windows, oldest first. The fold
// of the windows before the current one changes only when the window
// slides or a sample lands outside the current window, so the sketch
// caches it, and a read walks it and the current window in merge order
// without writing the last merge out. Reads update that cache, so a
// WindowedSketch is not safe for concurrent use.
type WindowedSketch struct {
	eps   float64
	width sim.Time
	slots []windowSlot

	// prefix is the fold of the live windows before window prefixCur, valid
	// while prefixOK; spare is its scratch twin during a rebuild, and empty
	// stands in for an absent window.
	prefixCur     int64
	prefixOK      bool
	prefix, spare *Sketch
	empty         *Sketch
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
		prefix: NewSketch(eps), spare: NewSketch(eps), empty: NewSketch(eps)}
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
		slot.sk.reset()
	}
	slot.sk.Add(v)
}

// Percentiles is a windowed read: the sample count and the nearest-rank
// p50, p99 and p999 over the live windows.
type Percentiles struct {
	Count          int64
	P50, P99, P999 float64
}

// Percentiles returns the count and percentiles of the samples in the
// windows live at time at. Each percentile is exactly what a Quantile of
// the oldest-first fold of those windows returns, 0 when they are empty.
func (w *WindowedSketch) Percentiles(at sim.Time) Percentiles {
	prefix, last := w.live(at)
	return Percentiles{
		Count: prefix.n + last.n,
		P50:   mergedQuantile(prefix, last, 0.50),
		P99:   mergedQuantile(prefix, last, 0.99),
		P999:  mergedQuantile(prefix, last, 0.999),
	}
}

// live returns the two summaries whose merge is the oldest-first fold of
// the windows live at time at: the cached fold of those before the current
// window, rebuilt if stale, and the current window's sketch (w.empty when
// it holds no samples).
func (w *WindowedSketch) live(at sim.Time) (prefix, last *Sketch) {
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
	if last = w.window(cur); last == nil {
		last = w.empty
	}
	return w.prefix, last
}
