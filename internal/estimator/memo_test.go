package estimator

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/hw"
)

// TestSpeedupMemoMatchesScan drives a memoized Estimator and the direct
// kNN scan with the same random queries and requires bit-identical
// answers. The profiles have categories and integer-valued parameters
// (many distance ties); the queries repeat from a small pool, which
// includes -0, +0 and NaN parameters and more distinct keys than the memo
// holds; and Adds interleave with the queries, so a memo that outlived a
// profile change would answer from the old profile.
func TestSpeedupMemoMatchesScan(t *testing.T) {
	cats := []string{"dense", "sparse", "mixed"}
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		arity := 1 + rng.Intn(2)
		withCats := rng.Intn(2) == 0
		randSample := func() Sample {
			params := make([]float64, arity)
			for i := range params {
				params[i] = float64(rng.Intn(5))
			}
			var c []string
			if withCats {
				c = []string{cats[rng.Intn(len(cats))]}
			}
			return sample(params, 1+float64(rng.Intn(50)), 1+float64(rng.Intn(20)), c...)
		}
		type query struct {
			params []float64
			cats   []string
		}
		pool := make([]query, 2*memoCap)
		for i := range pool {
			q := query{params: make([]float64, arity)}
			for j := range q.params {
				switch r := rng.Intn(8); r {
				case 0:
					q.params[j] = math.Copysign(0, -1)
				case 1:
					q.params[j] = 0
				case 2:
					q.params[j] = math.NaN()
				default:
					q.params[j] = float64(rng.Intn(6)) / 2
				}
			}
			if withCats && rng.Intn(3) > 0 {
				q.cats = []string{cats[rng.Intn(len(cats))]}
			}
			pool[i] = q
		}
		p := NewProfile()
		p.Add(randSample())
		k := 1 + rng.Intn(3)
		e := New(p, k)
		for op := 0; op < 400; op++ {
			if rng.Intn(10) == 0 {
				p.Add(randSample())
				continue
			}
			q := pool[rng.Intn(len(pool))]
			kind := hw.Kinds[rng.Intn(len(hw.Kinds))]
			got := e.Speedup(kind, q.params, q.cats)
			want := 1.0
			if kind != hw.CPU {
				want = p.PredictSpeedup(q.params, q.cats, hw.CPU, kind, k)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("seed %d op %d: Speedup(%v, %v, %v) = %v, scan %v (profile of %d samples)",
					seed, op, kind, q.params, q.cats, got, want, p.Len())
			}
		}
	}
}

// TestSpeedupMemoDropsOnAdd: a remembered answer must not survive an Add
// that moves the query's nearest neighbor.
func TestSpeedupMemoDropsOnAdd(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{10}, 4, 1))
	e := New(p, 1)
	if got := e.Speedup(hw.GPU, []float64{12}, nil); got != 4 {
		t.Fatalf("speedup = %v, want 4", got)
	}
	p.Add(sample([]float64{12}, 9, 1))
	if got := e.Speedup(hw.GPU, []float64{12}, nil); got != 9 {
		t.Fatalf("speedup after Add = %v, want 9 from the new nearest sample", got)
	}
}
