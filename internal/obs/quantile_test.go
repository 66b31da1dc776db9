package obs

import (
	"bytes"
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
)

var quantileGrid = []float64{0, 0.001, 0.25, 0.5, 0.9, 0.99, 0.999, 1}

// TestSketchExactSmallCounts pins the serving-mode promise: below the first
// compression threshold (n <= 1/(2*eps)) the sketch's percentiles equal the
// exact nearest-rank percentiles, bit for bit.
func TestSketchExactSmallCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for _, n := range []int{1, 2, 3, 10, 137, 999} {
		s := NewSketch(DefaultEps)
		vals := make([]float64, 0, n)
		for i := 0; i < n; i++ {
			v := rng.Float64() * 100
			if i%7 == 0 && i > 0 {
				v = vals[i-1] // duplicates must not break rank accounting
			}
			vals = append(vals, v)
			s.Add(v)
		}
		for _, q := range quantileGrid {
			got, want := s.Quantile(q), ExactQuantile(vals, q)
			if got != want {
				t.Errorf("n=%d q=%g: sketch %v, exact %v", n, q, got, want)
			}
		}
	}
}

// TestSketchRankErrorLargeCounts checks the GK error bound after many
// compressions: inserting a shuffled permutation of 0..n-1 makes every
// value's true rank self-evident, so the returned quantile's rank error is
// directly measurable.
func TestSketchRankErrorLargeCounts(t *testing.T) {
	const n = 20000
	const eps = 0.005
	vals := rand.New(rand.NewSource(7)).Perm(n)
	s := NewSketch(eps)
	for _, v := range vals {
		s.Add(float64(v))
	}
	for _, q := range quantileGrid {
		got := s.Quantile(q)
		rank := got + 1 // value v has exact rank v+1 in 0..n-1
		want := math.Ceil(q * n)
		if want < 1 {
			want = 1
		}
		if math.Abs(rank-want) > 2*eps*n+1 {
			t.Errorf("q=%g: returned rank %v, want %v +/- %v", q, rank, want, 2*eps*n+1)
		}
	}
}

// TestSketchDeterminismAndRoundTrip: the same insertion sequence encodes to
// identical bytes, and decode(encode(s)) preserves both the bytes and every
// quantile.
func TestSketchDeterminismAndRoundTrip(t *testing.T) {
	build := func() *Sketch {
		s := NewSketch(0.01)
		rng := rand.New(rand.NewSource(3))
		for i := 0; i < 5000; i++ {
			s.Add(math.Floor(rng.Float64() * 1000))
		}
		return s
	}
	a, b := build(), build()
	ea, eb := a.Encode(), b.Encode()
	if !bytes.Equal(ea, eb) {
		t.Fatal("same insertion sequence produced different encodings")
	}
	dec, err := DecodeSketch(ea)
	if err != nil {
		t.Fatalf("decode of own encoding failed: %v", err)
	}
	if !bytes.Equal(dec.Encode(), ea) {
		t.Fatal("decode(encode(s)) re-encodes differently")
	}
	for _, q := range quantileGrid {
		if dec.Quantile(q) != a.Quantile(q) {
			t.Errorf("q=%g: decoded sketch disagrees with original", q)
		}
	}
	if dec.Count() != a.Count() || dec.Eps() != a.Eps() {
		t.Error("decoded sketch lost count or eps")
	}
}

// TestSketchDecodeRejects exercises the decoder's structural validation.
func TestSketchDecodeRejects(t *testing.T) {
	bad := map[string]string{
		"not json":        `{"eps":`,
		"eps zero":        `{"eps":0,"n":0,"entries":[]}`,
		"eps too large":   `{"eps":0.5,"n":0,"entries":[]}`,
		"negative count":  `{"eps":0.1,"n":-1,"entries":[]}`,
		"count mismatch":  `{"eps":0.1,"n":2,"entries":[[1,1,0]]}`,
		"empty with n":    `{"eps":0.1,"n":1,"entries":[]}`,
		"g zero":          `{"eps":0.1,"n":1,"entries":[[1,0,0]]}`,
		"fractional g":    `{"eps":0.1,"n":1,"entries":[[1,1.5,0]]}`,
		"negative delta":  `{"eps":0.1,"n":1,"entries":[[1,1,-1]]}`,
		"unsorted values": `{"eps":0.1,"n":2,"entries":[[2,1,0],[1,1,0]]}`,
		"inf value":       `{"eps":0.1,"n":1,"entries":[[1e999,1,0]]}`,
		"extreme delta":   `{"eps":0.1,"n":3,"entries":[[1,1,1],[2,1,0],[3,1,0]]}`,
		"budget blown":    `{"eps":0.001,"n":3,"entries":[[1,1,0],[2,1,5],[3,1,0]]}`,
	}
	for name, doc := range bad {
		if _, err := DecodeSketch([]byte(doc)); err == nil {
			t.Errorf("%s: decoder accepted %s", name, doc)
		}
	}
	if _, err := DecodeSketch([]byte(`{"eps":0.1,"n":0,"entries":[]}`)); err != nil {
		t.Errorf("decoder rejected the canonical empty sketch: %v", err)
	}
}

// sketchEpsilons are the rank-error bounds the exactness tests cover.
var sketchEpsilons = []float64{DefaultEps, 0.002, 0.01, 0.05, 0.2, 0.49}

// streamValue is the i-th value of a random test stream: fresh values
// mixed with heavy duplicates, ascending and descending runs (which land at
// the extremes) and signed zeros.
func streamValue(rng *rand.Rand, i int) float64 {
	switch rng.Intn(6) {
	case 0:
		return float64(rng.Intn(8)) // heavy duplicates
	case 1:
		return float64(i) // ascending: lands last
	case 2:
		return -float64(i) // descending: lands first
	case 3:
		if rng.Intn(2) == 0 {
			return math.Copysign(0, -1)
		}
		return 0
	default:
		return rng.NormFloat64() * 100
	}
}

// gkRef is the one-at-a-time Greenwald-Khanna insert the batched Sketch
// must reproduce tuple for tuple: every Add places its tuple at once, after
// every tuple <= v, and every compressEvery inserts run one compression.
type gkRef struct {
	eps     float64
	n       int64
	entries []gkEntry
	since   int
}

func (r *gkRef) add(v float64) {
	pos := sort.Search(len(r.entries), func(i int) bool { return r.entries[i].v > v })
	var delta int64
	if pos != 0 && pos != len(r.entries) {
		delta = int64(2 * r.eps * float64(r.n))
	}
	r.entries = append(r.entries, gkEntry{})
	copy(r.entries[pos+1:], r.entries[pos:])
	r.entries[pos] = gkEntry{v: v, g: 1, delta: delta}
	r.n++
	r.since++
	if every := max(1, int(1/(2*r.eps))); r.since >= every {
		r.compress()
		r.since = 0
	}
}

func (r *gkRef) compress() {
	if len(r.entries) < 3 {
		return
	}
	limit := int64(2 * r.eps * float64(r.n))
	out := r.entries
	for i := len(out) - 2; i >= 1; i-- {
		if out[i].g+out[i+1].g+out[i+1].delta <= limit {
			out[i+1].g += out[i].g
			out = append(out[:i], out[i+1:]...)
		}
	}
	r.entries = out
}

// sketch returns a copy of the reference summary as a Sketch with nothing
// pending.
func (r *gkRef) sketch() *Sketch {
	s := &Sketch{eps: r.eps, n: r.n, entries: slices.Clone(r.entries)}
	s.resync()
	return s
}

// refOf returns a one-at-a-time reference holding s's summary, as Merge
// and DecodeSketch leave it: nothing pending, no inserts since the last
// compression.
func refOf(s *Sketch) *gkRef {
	return &gkRef{eps: s.eps, n: s.n, entries: slices.Clone(s.entries)}
}

// sameSummary reports whether s, once its pending inserts are merged in,
// holds exactly r's tuples.
func sameSummary(s *Sketch, r *gkRef) bool {
	s.flush()
	return s.eps == r.eps && s.n == r.n && slices.Equal(s.entries, r.entries)
}

// TestSketchBatchedMatchesOneAtATime drives random streams through the
// batched Sketch and the one-at-a-time reference side by side, with
// Quantile, Encode and Merge interleaved at random points (each flushes the
// pending inserts early), and requires the two summaries to agree tuple
// for tuple at every read; a merged or decoded sketch must keep taking
// inserts exactly too. The streams mix fresh values, heavy duplicates,
// ascending and descending runs (which land at the extremes) and signed
// zeros.
func TestSketchBatchedMatchesOneAtATime(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	value := func(i int) float64 { return streamValue(rng, i) }
	for trial := 0; trial < 300; trial++ {
		eps := sketchEpsilons[rng.Intn(len(sketchEpsilons))]
		n := rng.Intn(4000)
		readEvery := 20 + rng.Intn(1500)
		s, ref := NewSketch(eps), &gkRef{eps: eps}
		o, oref := NewSketch(eps), &gkRef{eps: eps} // a Merge partner
		for i := 0; i < n; i++ {
			v := value(i)
			s.Add(v)
			ref.add(v)
			if rng.Intn(3) == 0 {
				w := value(i)
				o.Add(w)
				oref.add(w)
			}
			if rng.Intn(readEvery) != 0 {
				continue
			}
			switch rng.Intn(3) {
			case 0:
				q := rng.Float64()
				if got, want := s.Quantile(q), ref.sketch().Quantile(q); got != want {
					t.Fatalf("trial %d eps %g after %d adds: Quantile(%g) = %v, one at a time %v",
						trial, eps, i+1, q, got, want)
				}
			case 1:
				if got, want := s.Encode(), ref.sketch().Encode(); !bytes.Equal(got, want) {
					t.Fatalf("trial %d eps %g after %d adds: summaries differ\nbatched  %s\nreference %s",
						trial, eps, i+1, got, want)
				}
			case 2:
				m := s.Merge(o)
				if !sameSummary(m, refOf(ref.sketch().Merge(oref.sketch()))) {
					t.Fatalf("trial %d eps %g after %d adds: merged summaries differ", trial, eps, i+1)
				}
				// A merged or decoded sketch keeps taking inserts exactly.
				d, err := DecodeSketch(m.Encode())
				if err != nil {
					t.Fatal(err)
				}
				mref, dref := refOf(m), refOf(d)
				for k := rng.Intn(50); k >= 0; k-- {
					w := value(i + k)
					m.Add(w)
					mref.add(w)
					d.Add(w)
					dref.add(w)
				}
				if !sameSummary(m, mref) || !sameSummary(d, dref) {
					t.Fatalf("trial %d eps %g after %d adds: inserts after Merge or DecodeSketch differ", trial, eps, i+1)
				}
			}
		}
		if !sameSummary(s, ref) || !sameSummary(o, oref) {
			t.Fatalf("trial %d eps %g, %d adds: final summaries differ", trial, eps, n)
		}
	}
}

// TestSketchAddAllocs requires a steady-state Add, compressions included,
// to allocate nothing once the summary and the pending buffer have grown.
func TestSketchAddAllocs(t *testing.T) {
	s := NewSketch(DefaultEps)
	g := lcg(5)
	for i := 0; i < 200000; i++ {
		s.Add(g.next())
	}
	if n := testing.AllocsPerRun(5000, func() { s.Add(g.next()) }); n != 0 {
		t.Fatalf("Add allocates %v times per insert, want 0", n)
	}
}

// qEdges are the quantiles the exactness tests read: both ends, out of
// range on either side, NaN, the serving percentiles, and a fixed spread
// of random ones.
var qEdges = func() []float64 {
	qs := []float64{0, 1, -0.5, 1.5, math.Inf(-1), math.Inf(1), math.NaN(), 0.001, 0.25, 0.5, 0.75, 0.99, 0.999}
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 16; i++ {
		qs = append(qs, rng.Float64())
	}
	return qs
}()

// forwardQuantile is the plain forward rank scan: the first tuple whose
// rmin+delta reaches the target rank. It is the reference Quantile's
// top-down scan and the fused windowed read must equal bit for bit.
func forwardQuantile(s *Sketch, q float64) float64 {
	if s.n == 0 {
		return 0
	}
	s.flush()
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	r := int64(math.Ceil(q * float64(s.n)))
	if r < 1 {
		r = 1
	}
	var rmin int64
	for i := range s.entries {
		rmin += s.entries[i].g
		if rmin+s.entries[i].delta >= r {
			return s.entries[i].v
		}
	}
	return s.entries[len(s.entries)-1].v
}

// tupleSketch builds a summary directly from random tuples: mostly few of
// them, sorted values with duplicates and signed zeros, g in 1..8, delta
// in 0..6 except at the extremes, n the sum of g. It need not be reachable
// by Add; it exercises the stop rule and the clamps at slack values a real
// stream rarely reaches.
func tupleSketch(rng *rand.Rand, eps float64) *Sketch {
	k := 1 + rng.Intn(1+rng.Intn(60))
	s := &Sketch{eps: eps, entries: make([]gkEntry, k)}
	v := rng.NormFloat64()
	for i := range s.entries {
		switch rng.Intn(4) {
		case 0: // a duplicate of the previous value
		case 1:
			v = math.Copysign(0, float64(rng.Intn(2)*2-1))
		default:
			v = max(v, 0) + rng.Float64()
		}
		s.entries[i] = gkEntry{v: v, g: 1 + rng.Int63n(1+rng.Int63n(8)), delta: rng.Int63n(7)}
		s.n += s.entries[i].g
	}
	slices.SortStableFunc(s.entries, func(a, b gkEntry) int { return cmp.Compare(a.v, b.v) })
	s.entries[0].delta, s.entries[k-1].delta = 0, 0
	s.resync()
	return s
}

// testSketches returns one random summary of each shape Quantile must
// answer exactly: a stream below its first compression, one compressed
// several times (both still holding pending inserts), an ascending stream
// (every insert lands last with delta 0, so only compress raises g+delta),
// merges, a decoded one, the one-at-a-time reference's, and one built
// from random tuples.
func testSketches(rng *rand.Rand, eps float64) []*Sketch {
	every := max(1, int(1/(2*eps)))
	stream := func(n int) (*Sketch, *gkRef) {
		s, ref := NewSketch(eps), &gkRef{eps: eps}
		for i := 0; i < n; i++ {
			v := streamValue(rng, i)
			s.Add(v)
			ref.add(v)
		}
		return s, ref
	}
	small, _ := stream(rng.Intn(every + 1))
	large, ref := stream(every + rng.Intn(3*every+200))
	other, _ := stream(rng.Intn(2 * every))
	ascending := NewSketch(eps)
	for i, n := 0, 3*every+rng.Intn(every); i < n; i++ {
		ascending.Add(float64(i))
	}
	dec, err := DecodeSketch(large.Encode())
	if err != nil {
		panic(err)
	}
	large.Add(streamValue(rng, 0)) // leave an insert pending
	return []*Sketch{small, large, ascending, large.Merge(other), other.Merge(small), dec, ref.sketch(), tupleSketch(rng, eps)}
}

// TestQuantileMatchesForwardScan requires Quantile, whose upper half scans
// from the top, to return bit for bit what the forward scan does, on every
// sketch shape, every eps and every q of qEdges.
func TestQuantileMatchesForwardScan(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, eps := range sketchEpsilons {
		for trial := 0; trial < 40; trial++ {
			for k, s := range testSketches(rng, eps) {
				for _, q := range qEdges {
					got, want := s.Quantile(q), forwardQuantile(s, q)
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("eps %g trial %d shape %d (n=%d, gd=%d) q=%v: Quantile %v, forward scan %v",
							eps, trial, k, s.n, s.gd, q, got, want)
					}
				}
			}
		}
	}
}

// TestSketchSlackBound requires gd to bound g+delta over every tuple of
// every sketch shape, and an empty sketch to have gd 0.
func TestSketchSlackBound(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, eps := range sketchEpsilons {
		for trial := 0; trial < 10; trial++ {
			for k, s := range testSketches(rng, eps) {
				s.flush()
				for i, e := range s.entries {
					if e.g+e.delta > s.gd {
						t.Fatalf("eps %g trial %d shape %d: tuple %d has g+delta %d above gd %d",
							eps, trial, k, i, e.g+e.delta, s.gd)
					}
				}
				if s.reset(); s.gd != 0 {
					t.Fatalf("eps %g trial %d shape %d: gd %d after reset", eps, trial, k, s.gd)
				}
			}
		}
	}
}
