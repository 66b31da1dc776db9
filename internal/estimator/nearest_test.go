package estimator

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// nearestReference is the O(n log n) implementation nearest() replaced: a
// stable sort of every candidate by distance, then the k-prefix. The
// bounded-heap selection must agree with it exactly, ties included.
func nearestReference(p *Profile, params []float64, cats []string, k int, skip func(int) bool) []int {
	if k <= 0 {
		return nil
	}
	var cand []neighbor
	for i, s := range p.samples {
		if skip != nil && skip(i) {
			continue
		}
		cand = append(cand, neighbor{i, p.Distance(params, cats, s)})
	}
	sort.SliceStable(cand, func(i, j int) bool { return cand[i].dist < cand[j].dist })
	if len(cand) > k {
		cand = cand[:k]
	}
	out := make([]int, len(cand))
	for i, c := range cand {
		out[i] = c.idx
	}
	return out
}

// nearestIdx runs nearest as the predictors do, on a stack buffer of smallK
// neighbors, and returns the selected sample indices.
func nearestIdx(p *Profile, params []float64, cats []string, k int, skip func(int) bool) []int {
	var buf [smallK]neighbor
	best := p.nearest(params, cats, k, skip, buf[:0])
	if best == nil {
		return nil
	}
	out := make([]int, len(best))
	for i, c := range best {
		out[i] = c.idx
	}
	return out
}

// TestNearestMatchesStableSort cross-checks the bounded k-selection against
// the stable-sort reference on random profiles, including duplicate points
// (distance ties) and a skip predicate, across the k range the estimator
// uses and past smallK, where the selection leaves the caller's buffer.
func TestNearestMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 50; trial++ {
		p := NewProfile()
		n := 1 + rng.Intn(40)
		for i := 0; i < n; i++ {
			// Draw coordinates from a small grid so exact ties are common.
			s := sample([]float64{float64(rng.Intn(5)), float64(rng.Intn(5))},
				1, 1)
			p.Add(s)
		}
		query := []float64{float64(rng.Intn(5)), float64(rng.Intn(5))}
		var skip func(int) bool
		if trial%3 == 0 {
			skip = func(i int) bool { return i%4 == 1 }
		}
		for _, k := range []int{0, 1, 2, 3, 5, n, n + 3} {
			got := nearestIdx(p, query, nil, k, skip)
			want := nearestReference(p, query, nil, k, skip)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d, n=%d, k=%d: nearest=%v, reference=%v",
					trial, n, k, got, want)
			}
		}
	}
}
