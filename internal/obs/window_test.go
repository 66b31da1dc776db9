package obs

import (
	"bytes"
	"math"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/sim"
)

// lcg is a tiny deterministic generator for test sample streams.
type lcg uint64

func (l *lcg) next() float64 {
	*l = *l*6364136223846793005 + 1442695040888963407
	return float64(uint32(*l>>33)) / float64(1<<32)
}

// rankError returns how far (in ranks) the reported quantile value v is
// from the target rank ceil(q*n) in the sorted sample. Zero when v's rank
// interval covers the target.
func rankError(sorted []float64, v, q float64) float64 {
	n := len(sorted)
	r := math.Ceil(q * float64(n))
	if r < 1 {
		r = 1
	}
	lo := sort.SearchFloat64s(sorted, v)                            // samples strictly below v
	hi := sort.Search(n, func(i int) bool { return sorted[i] > v }) // samples <= v
	if float64(lo+1) > r {
		return float64(lo+1) - r
	}
	if float64(hi) < r {
		return r - float64(hi)
	}
	return 0
}

var quantileProbes = []float64{0.01, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0}

// TestSketchMergeEquivalence merges two compressed sketches and checks every
// probe quantile against the exact sample union within 2*eps*n ranks — the
// bound the windowed percentiles rely on.
func TestSketchMergeEquivalence(t *testing.T) {
	const eps = 0.01
	const perSketch = 1500 // well past compressEvery = 50, so compression is active
	a, b := NewSketch(eps), NewSketch(eps)
	var all []float64
	g := lcg(1)
	for i := 0; i < perSketch; i++ {
		v := g.next()
		a.Add(v)
		all = append(all, v)
	}
	for i := 0; i < perSketch; i++ {
		v := g.next() * 10 // disjoint-ish range so the merge interleaves
		b.Add(v)
		all = append(all, v)
	}
	m := a.Merge(b)
	if m.Count() != int64(len(all)) {
		t.Fatalf("merged count = %d, want %d", m.Count(), len(all))
	}
	if a.Count() != perSketch || b.Count() != perSketch {
		t.Fatal("merge mutated its inputs")
	}
	sort.Float64s(all)
	budget := 2 * eps * float64(len(all))
	for _, q := range quantileProbes {
		v := m.Quantile(q)
		if e := rankError(all, v, q); e > budget {
			t.Errorf("q=%g: value %g off by %.1f ranks (budget %.1f)", q, v, e, budget)
		}
	}
}

// TestSketchMergeEmpty checks the identity cases.
func TestSketchMergeEmpty(t *testing.T) {
	a, b := NewSketch(0.01), NewSketch(0.05)
	a.Add(3)
	m := a.Merge(b)
	if m.Count() != 1 || m.Quantile(0.5) != 3 {
		t.Fatalf("merge with empty = count %d, p50 %g", m.Count(), m.Quantile(0.5))
	}
	if m.Eps() != 0.05 {
		t.Fatalf("merged eps = %g, want max of inputs 0.05", m.Eps())
	}
	if e := NewSketch(0.01).Merge(NewSketch(0.01)); e.Count() != 0 || e.Quantile(0.5) != 0 {
		t.Fatal("empty merge not empty")
	}
}

// TestWindowedSketchEquivalence streams samples across many windows and
// checks the windowed quantile against the exact quantile of exactly the
// samples in the live windows, within 2*eps*n ranks.
func TestWindowedSketchEquivalence(t *testing.T) {
	const eps = 0.01
	width, windows := sim.Time(1.0), 3
	w := NewWindowedSketch(eps, width, windows)
	g := lcg(7)
	byWindow := make(map[int64][]float64)
	const perWindow = 400
	var at sim.Time
	for win := int64(0); win < 6; win++ {
		for i := 0; i < perWindow; i++ {
			at = sim.Time(win)*width + sim.Time(float64(i)/perWindow)*width
			v := g.next() * float64(win+1) // shift the distribution per window
			w.Add(at, v)
			byWindow[win] = append(byWindow[win], v)
		}
	}
	// At the end of window 5 the live windows are 3, 4, 5.
	var live []float64
	for _, win := range []int64{3, 4, 5} {
		live = append(live, byWindow[win]...)
	}
	if got, want := w.Count(at), int64(len(live)); got != want {
		t.Fatalf("live count = %d, want %d (expired windows leaked in)", got, want)
	}
	sort.Float64s(live)
	budget := 2 * eps * float64(len(live))
	for _, q := range quantileProbes {
		v := w.Quantile(at, q)
		if e := rankError(live, v, q); e > budget {
			t.Errorf("q=%g: value %g off by %.1f ranks (budget %.1f)", q, v, e, budget)
		}
	}
}

// TestWindowedSketchExpiry checks that old windows fall out of the query as
// time advances, even with no new inserts.
func TestWindowedSketchExpiry(t *testing.T) {
	w := NewWindowedSketch(0.01, sim.Time(1.0), 2)
	w.Add(0.5, 100) // window 0
	w.Add(1.5, 200) // window 1
	if got := w.Count(1.5); got != 2 {
		t.Fatalf("count at 1.5 = %d, want 2", got)
	}
	if p := w.Quantile(1.5, 1.0); p != 200 {
		t.Fatalf("max at 1.5 = %g, want 200", p)
	}
	// At t=2.x the live windows are 1 and 2; window 0's sample is gone.
	if got := w.Count(2.5); got != 1 {
		t.Fatalf("count at 2.5 = %d, want 1", got)
	}
	if p := w.Quantile(2.5, 0.0); p != 200 {
		t.Fatalf("min at 2.5 = %g, want 200 (window 0 should have expired)", p)
	}
	// At t=3.x everything has expired.
	if got := w.Count(3.5); got != 0 {
		t.Fatalf("count at 3.5 = %d, want 0", got)
	}
	// A new insert reuses the expired slot without resurrecting old samples.
	w.Add(3.5, 300)
	if got := w.Count(3.5); got != 1 {
		t.Fatalf("count after slot reuse = %d, want 1", got)
	}
}

// TestWindowedSketchDeterministic checks byte-level reproducibility of the
// merged summary for a fixed insertion schedule.
func TestWindowedSketchDeterministic(t *testing.T) {
	build := func() []byte {
		w := NewWindowedSketch(0.01, sim.Time(0.5), 4)
		g := lcg(42)
		for i := 0; i < 3000; i++ {
			w.Add(sim.Time(float64(i)*1e-3), g.next())
		}
		return w.Merged(sim.Time(2.999)).Encode()
	}
	a, b := build(), string(build())
	if string(a) != b {
		t.Fatal("merged windowed sketch not deterministic")
	}
}

// refWindows is the from-scratch reference for WindowedSketch: a ring of
// per-window sketches with its own slot arithmetic, folded afresh oldest
// window first on every query.
type refWindows struct {
	eps   float64
	width sim.Time
	idx   []int64
	sks   []*Sketch
}

func newRefWindows(eps float64, width sim.Time, windows int) *refWindows {
	r := &refWindows{eps: eps, width: width, idx: make([]int64, windows), sks: make([]*Sketch, windows)}
	for i := range r.idx {
		r.idx[i] = -1
	}
	return r
}

func (r *refWindows) add(at sim.Time, v float64) {
	idx := int64(math.Floor(float64(at / r.width)))
	s := idx % int64(len(r.idx))
	if r.idx[s] != idx {
		r.idx[s], r.sks[s] = idx, NewSketch(r.eps)
	}
	r.sks[s].Add(v)
}

func (r *refWindows) merged(at sim.Time) *Sketch {
	n := int64(len(r.idx))
	cur := int64(math.Floor(float64(at / r.width)))
	m := NewSketch(r.eps)
	for off := cur - n + 1; off <= cur; off++ {
		if s := (off%n + n) % n; r.idx[s] == off && r.sks[s] != nil {
			m = m.Merge(r.sks[s])
		}
	}
	return m
}

// windowOp is one step of a windowed-sketch schedule: an Add, or with query
// set a Merged/Count query at the instant.
type windowOp struct {
	query bool
	at    sim.Time
	v     float64
}

// checkWindowOps replays ops on a WindowedSketch and on the reference and
// requires every query, and a final one at the last instant, to encode
// identically and count the same samples.
func checkWindowOps(t *testing.T, eps float64, width sim.Time, windows int, ops []windowOp) {
	t.Helper()
	w, ref := NewWindowedSketch(eps, width, windows), newRefWindows(eps, width, windows)
	var last sim.Time
	check := func(i int, at sim.Time) {
		want := ref.merged(at)
		if got := w.Merged(at).Encode(); !bytes.Equal(got, want.Encode()) {
			t.Fatalf("op %d: Merged(%v) = %s, reference fold %s", i, at, got, want.Encode())
		}
		if got := w.Count(at); got != want.Count() {
			t.Fatalf("op %d: Count(%v) = %d, want %d", i, at, got, want.Count())
		}
	}
	for i, op := range ops {
		last = op.at
		if op.query {
			check(i, op.at)
			continue
		}
		w.Add(op.at, op.v)
		ref.add(op.at, op.v)
	}
	check(len(ops), last)
}

// TestWindowedSketchIncremental checks the cached prefix fold against the
// from-scratch reference over seeded random schedules: adds in order, out
// of order into older live windows and past the ring (slot reuse), gaps
// that leave windows empty or expire every window, bursts that compress a
// window (g > 1), repeated queries with no Add in between, and queries at
// instants before the newest sample.
func TestWindowedSketchIncremental(t *testing.T) {
	const width = sim.Time(1)
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		windows := 1 + rng.Intn(6)
		eps, burst := 0.01, 120 // compresses every 50 samples
		if seed%2 == 0 {
			eps, burst = DefaultEps, 2100 // g > 1 from 2000 samples
		}
		var ops []windowOp
		at := sim.Time(0)
		add := func(at sim.Time) { ops = append(ops, windowOp{at: at, v: rng.Float64()}) }
		for step := 0; step < 2000; step++ {
			switch r := rng.Float64(); {
			case r < 0.5:
				at += sim.Time(rng.Float64() * 0.3)
				add(at)
			case r < 0.65: // older window, live or long expired
				add(max(0, at-sim.Time(rng.Float64()*float64(windows+2))*width))
			case r < 0.7: // gap: empty windows, sometimes all expired
				at += sim.Time(1+rng.Float64()*2*float64(windows)) * width
			case r < 0.705:
				for i := 0; i < burst; i++ {
					add(at)
				}
			case r < 0.75: // a query behind the newest sample
				ops = append(ops, windowOp{query: true, at: max(0, at-sim.Time(rng.Float64()*float64(windows+2))*width)})
			default:
				for n := 1 + rng.Intn(3); n > 0; n-- {
					ops = append(ops, windowOp{query: true, at: at})
				}
			}
		}
		checkWindowOps(t, eps, width, windows, ops)
	}
}

// TestWindowedSketchQueryAllocs requires repeated queries within one window
// to allocate nothing once the sketch's buffers have grown.
func TestWindowedSketchQueryAllocs(t *testing.T) {
	w := NewWindowedSketch(0.01, sim.Time(1), 4)
	g := lcg(3)
	for i := 0; i < 4000; i++ {
		w.Add(sim.Time(float64(i)*1e-3), g.next())
	}
	at := sim.Time(3.9995)
	if n := testing.AllocsPerRun(100, func() {
		m := w.Merged(at)
		_ = m.Quantile(0.5) + m.Quantile(0.99) + m.Quantile(0.999) + float64(m.Count())
	}); n != 0 {
		t.Fatalf("Merged+Quantile allocates %v times per query, want 0", n)
	}
}

// TestWindowedSketchRejectsBadInstants checks that Add panics with a clear
// message on an instant no window holds (a negative instant once indexed
// slot -1), and that queries at negative instants see no windows.
func TestWindowedSketchRejectsBadInstants(t *testing.T) {
	w := NewWindowedSketch(0.01, 25*sim.Millisecond, 8)
	for _, at := range []sim.Time{-0.03, -0.01, sim.Time(math.NaN()), sim.Time(math.Inf(1))} {
		func() {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, "finite and >= 0") {
					t.Errorf("Add(%v) panicked with %q, want a finite/non-negative instant panic", at, msg)
				}
			}()
			w.Add(at, 1)
		}()
	}
	w.Add(0, 1)
	if n := w.Count(-0.03); n != 0 {
		t.Fatalf("Count(-0.03) = %d, want 0", n)
	}
	if n := w.Merged(-0.03).Count(); n != 0 {
		t.Fatalf("Merged(-0.03) holds %d samples, want 0", n)
	}
}
