package obs

// A deterministic quantile sketch for per-request latency percentiles
// (p50/p99/p999) in the open-system serving mode. The structure is a
// Greenwald-Khanna summary: a sorted list of (value, g, delta) tuples whose
// rank uncertainty is bounded by eps*n, compressed every 1/(2*eps)
// insertions. Everything is integer-rank arithmetic over the inserted
// values — no randomness, no hashing — so the same insertion sequence
// yields the identical summary (and identical rendered percentiles) on
// every host and worker count.
//
// Below the first compression threshold (n <= 1/(2*eps)) the summary holds
// every sample with g=1, delta=0, and Quantile is exactly the nearest-rank
// percentile — the property the equivalence tests pin against
// ExactQuantile.
//
// Inserts are batched but exact. A one-at-a-time GK insert lands after every
// tuple whose value is <= v, and its slack is 0 only when it lands first
// (v below every value so far) or last (no value above v); otherwise it is
// floor(2*eps*n). Both cases follow from a running min and max, so Add
// decides each tuple completely and only queues it. Nothing else changes
// the summary between compressions, so merging the queued tuples in stably
// by value (existing tuples first on ties) at the next compression, or at
// any read, yields exactly the tuples the one-at-a-time inserts would have.

import (
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"sort"
)

// DefaultEps is the rank-error bound serving experiments use: exact
// percentiles up to 1000 samples, rank error <= 2*eps*n beyond.
const DefaultEps = 0.0005

// gkEntry is one summary tuple: v covers g ranks, with delta of rank slack.
type gkEntry struct {
	v        float64
	g, delta int64
}

// Sketch is a Greenwald-Khanna quantile summary. Reads flush queued
// inserts into the summary, so a Sketch is not safe for concurrent use,
// reads included.
type Sketch struct {
	eps           float64
	n             int64
	entries       []gkEntry
	sinceCompress int
	// pending holds the inserts not yet merged into entries. Each is
	// complete except g, which holds its arrival index among them until
	// flush has sorted them by (value, arrival) and sets it to 1. min and
	// max are the extreme values inserted so far (valid while n > 0).
	pending  []gkEntry
	min, max float64
	// gd is an upper bound on g+delta over the summary's tuples, pending
	// ones included (0 while empty). Quantile's top-down scan stops on it.
	gd int64
}

// NewSketch creates a sketch with the given rank-error bound (0 < eps < 0.5).
func NewSketch(eps float64) *Sketch {
	if !(eps > 0 && eps < 0.5) {
		panic(fmt.Sprintf("obs: sketch eps must be in (0, 0.5), got %g", eps))
	}
	return &Sketch{eps: eps}
}

// Count returns the number of inserted values.
func (s *Sketch) Count() int64 { return s.n }

// Eps returns the sketch's rank-error bound.
func (s *Sketch) Eps() float64 { return s.eps }

// compressEvery is the insertion period between compressions.
func (s *Sketch) compressEvery() int {
	e := int(1 / (2 * s.eps))
	if e < 1 {
		e = 1
	}
	return e
}

// Add inserts one finite value.
func (s *Sketch) Add(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		panic("obs: sketch values must be finite")
	}
	var delta int64
	switch {
	case s.n == 0:
		s.min, s.max = v, v
	case v < s.min: // would land first
		s.min = v
	case v >= s.max: // would land last
		s.max = v
	default:
		delta = int64(2 * s.eps * float64(s.n))
	}
	s.gd = max(s.gd, 1+delta)
	s.pending = append(s.pending, gkEntry{v: v, g: int64(len(s.pending)), delta: delta})
	s.n++
	s.sinceCompress++
	if s.sinceCompress >= s.compressEvery() {
		s.flush()
		s.compress()
		s.sinceCompress = 0
	}
}

// flush merges the pending inserts into entries: sorted by value, equal
// values in arrival order, then merged from the back so that only the tail
// past the smallest pending value moves, existing entries first on ties.
func (s *Sketch) flush() {
	p := s.pending
	if len(p) == 0 {
		return
	}
	slices.SortFunc(p, byValueThenArrival)
	i := len(s.entries) - 1
	s.entries = append(s.entries, p...)
	e := s.entries
	for j, w := len(p)-1, len(e)-1; j >= 0; w-- {
		if i >= 0 && e[i].v > p[j].v {
			e[w] = e[i]
			i--
		} else {
			e[w] = p[j]
			e[w].g = 1
			j--
		}
	}
	s.pending = p[:0]
}

// byValueThenArrival orders pending tuples by value, then by the arrival
// index they carry in g.
func byValueThenArrival(a, b gkEntry) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return cmp.Compare(a.g, b.g)
}

// compress merges adjacent tuples whose combined rank coverage stays within
// the error budget, right to left, never touching the min or max entry. It
// is one pass: each tuple is tested against its right neighbour as merged
// so far, kept tuples are written down from the top, and the survivors are
// then moved back to the front. gd is then recomputed over the survivors.
func (s *Sketch) compress() {
	e := s.entries
	if len(e) < 3 {
		return
	}
	limit := int64(2 * s.eps * float64(s.n))
	w := len(e) - 1 // the last kept tuple
	for i := len(e) - 2; i >= 1; i-- {
		if e[i].g+e[w].g+e[w].delta <= limit {
			e[w].g += e[i].g
		} else {
			w--
			e[w] = e[i]
		}
	}
	w--
	e[w] = e[0]
	s.entries = e[:copy(e, e[w:])]
	s.setSlack()
}

// reset empties the sketch, keeping its eps and its storage.
func (s *Sketch) reset() {
	s.n, s.sinceCompress, s.gd = 0, 0, 0
	s.entries, s.pending = s.entries[:0], s.pending[:0]
}

// resync resets min, max and gd from a summary with no pending inserts,
// such as one built or decoded directly from its tuples.
func (s *Sketch) resync() {
	if len(s.entries) > 0 {
		s.min, s.max = s.entries[0].v, s.entries[len(s.entries)-1].v
	}
	s.setSlack()
}

// setSlack sets gd to the largest g+delta over the summary's tuples.
func (s *Sketch) setSlack() {
	s.gd = 0
	for _, e := range s.entries {
		s.gd = max(s.gd, e.g+e.delta)
	}
}

// Quantile returns the value at the nearest-rank quantile q in [0, 1],
// within the sketch's rank-error bound (exact below the first compression).
// An empty sketch returns 0.
//
// The answer is the first tuple i, in value order, whose rank bound
// rmin_i+delta_i reaches the target rank r, where rmin_i is the g of
// tuples 0..i summed. A rank in the lower half is found by that forward
// scan. A rank in the upper half is found from the top: rmin_i is n minus
// the g above i, and every tuple below i has rmin+delta <= rmin_i-1+gd,
// so once that falls short of r no lower tuple can qualify and the lowest
// qualifying tuple seen is the forward scan's first. p99 and p999 then
// touch about 1% of the tuples.
func (s *Sketch) Quantile(q float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.flush()
	r, e := rank(q, s.n), s.entries
	if 2*r <= s.n {
		var rmin int64
		for i := range e {
			rmin += e[i].g
			if rmin+e[i].delta >= r {
				return e[i].v
			}
		}
		return e[len(e)-1].v
	}
	best, rmin := len(e)-1, s.n
	for i := len(e) - 1; i >= 0 && rmin+s.gd-1 >= r; i-- {
		if rmin+e[i].delta >= r {
			best = i
		}
		rmin -= e[i].g
	}
	return e[best].v
}

// rank returns the nearest rank ceil(q*n) of quantile q, q clamped to
// [0, 1] and the rank to at least 1.
func rank(q float64, n int64) int64 {
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	return max(1, int64(math.Ceil(q*float64(n))))
}

// ExactQuantile is the nearest-rank percentile computed from the full
// sample — the reference the sketch's small-count equivalence tests compare
// against. The input is not modified. An empty input returns 0.
func ExactQuantile(vals []float64, q float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	sorted := append([]float64(nil), vals...)
	sort.Float64s(sorted)
	r := int(math.Ceil(q * float64(len(sorted))))
	if r < 1 {
		r = 1
	}
	if r > len(sorted) {
		r = len(sorted)
	}
	return sorted[r-1]
}

// sketchJSON is the sketch's stable serialized form. Each entry is a
// [value, g, delta] triple; g and delta are integers stored as JSON numbers
// (exact below 2^53, far beyond any plausible count).
type sketchJSON struct {
	Eps     float64      `json:"eps"`
	N       int64        `json:"n"`
	Entries [][3]float64 `json:"entries"`
}

// Encode renders the sketch as canonical JSON: same summary, same bytes.
func (s *Sketch) Encode() []byte {
	s.flush()
	doc := sketchJSON{Eps: s.eps, N: s.n, Entries: make([][3]float64, len(s.entries))}
	for i, e := range s.entries {
		doc.Entries[i] = [3]float64{e.v, float64(e.g), float64(e.delta)}
	}
	out, err := json.Marshal(doc)
	if err != nil {
		panic(fmt.Sprintf("obs: sketch encode: %v", err)) // no unencodable values by construction
	}
	return out
}

// DecodeSketch parses and validates a serialized sketch. Every structural
// invariant of the summary is checked — the decoder accepts exactly the
// states Add/compress can produce — so malformed or adversarial input
// returns an error, never a sketch that later misbehaves.
func DecodeSketch(data []byte) (*Sketch, error) {
	var doc sketchJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("obs: sketch decode: %w", err)
	}
	if !(doc.Eps > 0 && doc.Eps < 0.5) {
		return nil, fmt.Errorf("obs: sketch decode: eps %g out of (0, 0.5)", doc.Eps)
	}
	if doc.N < 0 {
		return nil, fmt.Errorf("obs: sketch decode: negative count %d", doc.N)
	}
	if (doc.N == 0) != (len(doc.Entries) == 0) {
		return nil, fmt.Errorf("obs: sketch decode: count %d with %d entries", doc.N, len(doc.Entries))
	}
	s := &Sketch{eps: doc.Eps, n: doc.N, entries: make([]gkEntry, len(doc.Entries))}
	budget := int64(2*doc.Eps*float64(doc.N)) + 1
	var sumG int64
	for i, e := range doc.Entries {
		v, g, delta := e[0], e[1], e[2]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("obs: sketch decode: entry %d value not finite", i)
		}
		if g != math.Trunc(g) || delta != math.Trunc(delta) || g < 1 || delta < 0 ||
			g > 1<<53 || delta > 1<<53 {
			return nil, fmt.Errorf("obs: sketch decode: entry %d has invalid ranks (g=%v, delta=%v)", i, g, delta)
		}
		if i > 0 && v < s.entries[i-1].v {
			return nil, fmt.Errorf("obs: sketch decode: entry %d out of order", i)
		}
		if (i == 0 || i == len(doc.Entries)-1) && delta != 0 {
			return nil, fmt.Errorf("obs: sketch decode: extreme entry %d has nonzero delta", i)
		}
		if int64(g)+int64(delta) > budget {
			return nil, fmt.Errorf("obs: sketch decode: entry %d exceeds the rank budget (g+delta=%v > %d)",
				i, g+delta, budget)
		}
		s.entries[i] = gkEntry{v: v, g: int64(g), delta: int64(delta)}
		sumG += int64(g)
	}
	if sumG != doc.N {
		return nil, fmt.Errorf("obs: sketch decode: ranks cover %d of %d values", sumG, doc.N)
	}
	s.resync()
	return s, nil
}
