package estimator

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/hw"
)

func sample(params []float64, cpu, gpu float64, cats ...string) Sample {
	var s Sample
	s.Params = params
	s.Cats = cats
	s.Times[hw.CPU] = cpu
	s.Times[hw.GPU] = gpu
	return s
}

func TestDistanceNormalization(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{100, 1}, 1, 1))
	p.Add(sample([]float64{200, 2}, 1, 1))
	// Query equidistant in raw terms would not be so after normalization:
	// dims are scaled by maxima (200 and 2).
	d1 := p.Distance([]float64{150, 1}, nil, p.Samples()[0]) // (50/200, 0)
	d2 := p.Distance([]float64{100, 1.5}, nil, p.Samples()[0])
	if math.Abs(d1-0.25) > 1e-12 {
		t.Fatalf("d1 = %v, want 0.25", d1)
	}
	if math.Abs(d2-0.25) > 1e-12 {
		t.Fatalf("d2 = %v, want 0.25", d2)
	}
}

func TestDistanceCategorical(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{1}, 1, 1, "dense"))
	s := p.Samples()[0]
	if d := p.Distance([]float64{1}, []string{"dense"}, s); d != 0 {
		t.Fatalf("matching cat distance = %v", d)
	}
	if d := p.Distance([]float64{1}, []string{"sparse"}, s); d != 1 {
		t.Fatalf("mismatching cat distance = %v", d)
	}
}

func TestPredictExactMatch(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{10}, 2.0, 0.5))
	p.Add(sample([]float64{1000}, 200.0, 4.0))
	got := p.PredictSpeedup([]float64{10}, nil, hw.CPU, hw.GPU, 1)
	if math.Abs(got-4.0) > 1e-12 {
		t.Fatalf("speedup = %v, want 4", got)
	}
}

func TestPredictAveragesKNeighbors(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{10}, 10, 1))
	p.Add(sample([]float64{12}, 20, 2))
	p.Add(sample([]float64{1000}, 999, 999))
	got := p.PredictSpeedup([]float64{11}, nil, hw.CPU, hw.GPU, 2)
	// avg cpu = 15, avg gpu = 1.5 -> 10
	if math.Abs(got-10) > 1e-12 {
		t.Fatalf("speedup = %v, want 10", got)
	}
}

func TestEstimatorCPUBaselineIsOne(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{1}, 5, 1))
	est := New(p, 1)
	if s := est.Speedup(hw.CPU, []float64{1}, nil); s != 1 {
		t.Fatalf("CPU speedup = %v, want 1", s)
	}
	if s := est.Speedup(hw.GPU, []float64{1}, nil); s != 5 {
		t.Fatalf("GPU speedup = %v, want 5", s)
	}
}

func TestCrossValidatePerfectRatio(t *testing.T) {
	// CPU time is wildly data-dependent but the GPU/CPU ratio is constant:
	// speedup error should be ~0 while time error is large.
	rng := rand.New(rand.NewSource(7))
	p := NewProfile()
	for i := 0; i < 30; i++ {
		x := rng.Float64() * 100
		cpu := 1 + 50*rng.Float64() // essentially unpredictable from x
		p.Add(sample([]float64{x}, cpu, cpu/8))
	}
	r := CrossValidate(p, 10, 2, 1)
	if r.N != 30 {
		t.Fatalf("N = %d", r.N)
	}
	if r.SpeedupErrPct > 1e-9 {
		t.Fatalf("speedup error = %v, want ~0", r.SpeedupErrPct)
	}
	if r.CPUTimeErrPct < 20 {
		t.Fatalf("CPU time error = %v, want large", r.CPUTimeErrPct)
	}
}

func TestCrossValidateSmoothSpeedup(t *testing.T) {
	// Smooth speedup function of the parameter: kNN should track it within
	// a modest error even when absolute times carry noise.
	rng := rand.New(rand.NewSource(42))
	p := NewProfile()
	for i := 0; i < 60; i++ {
		x := rng.Float64()*900 + 100
		base := x * x / 1000
		noise := 1 + 0.5*(rng.Float64()-0.5) // +/-25% on both devices
		sp := 1 + x/100                      // speedup in [2, 11]
		cpu := base * noise
		p.Add(sample([]float64{x}, cpu, cpu/sp))
	}
	r := CrossValidate(p, 10, 2, 1)
	if r.SpeedupErrPct > 20 {
		t.Fatalf("speedup error = %.2f%%, want < 20%%", r.SpeedupErrPct)
	}
	if r.SpeedupErrPct >= r.CPUTimeErrPct {
		t.Fatalf("speedup error (%.2f%%) should beat time error (%.2f%%)",
			r.SpeedupErrPct, r.CPUTimeErrPct)
	}
}

func TestNearestDeterministicTieBreak(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{5}, 1, 1))
	p.Add(sample([]float64{5}, 2, 2))
	p.Add(sample([]float64{5}, 3, 3))
	got := nearestIdx(p, []float64{5}, nil, 2, nil)
	if got[0] != 0 || got[1] != 1 {
		t.Fatalf("tie-break order = %v, want [0 1]", got)
	}
}

func TestPredictSpeedupSymmetryProperty(t *testing.T) {
	// Property: PredictSpeedup(base, target) * PredictSpeedup(target, base) == 1
	// for any query, since both use the same neighbor set.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfile()
		for i := 0; i < 20; i++ {
			p.Add(sample([]float64{rng.Float64() * 10}, 0.1+rng.Float64(), 0.1+rng.Float64()))
		}
		q := []float64{rng.Float64() * 10}
		a := p.PredictSpeedup(q, nil, hw.CPU, hw.GPU, 3)
		b := p.PredictSpeedup(q, nil, hw.GPU, hw.CPU, 3)
		return math.Abs(a*b-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDistanceMetricProperties(t *testing.T) {
	// Property: non-negativity and identity (d(x,x)=0 for numeric-only).
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p := NewProfile()
		params := []float64{rng.Float64() * 100, rng.Float64()}
		p.Add(sample(params, 1, 1))
		s := p.Samples()[0]
		if p.Distance(params, nil, s) != 0 {
			return false
		}
		other := []float64{rng.Float64() * 100, rng.Float64()}
		return p.Distance(other, nil, s) >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCrossValidatePanicsOnTooFewSamples(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	p := NewProfile()
	p.Add(sample([]float64{1}, 1, 1))
	CrossValidate(p, 10, 2, 1)
}

func TestProfileSaveLoadRoundTrip(t *testing.T) {
	p := NewProfile()
	p.Add(sample([]float64{10, 2}, 1.5, 0.25, "dense"))
	p.Add(sample([]float64{500, 7}, 120, 4))
	var buf bytes.Buffer
	if err := p.Save(&buf); err != nil {
		t.Fatal(err)
	}
	q, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if q.Len() != 2 {
		t.Fatalf("loaded %d samples", q.Len())
	}
	for i, s := range q.Samples() {
		o := p.Samples()[i]
		if !reflect.DeepEqual(s.Params, o.Params) || !reflect.DeepEqual(s.Cats, o.Cats) ||
			s.Times != o.Times {
			t.Fatalf("sample %d round-trip mismatch: %+v vs %+v", i, s, o)
		}
	}
	// Predictions must be identical after the round trip.
	a := p.PredictSpeedup([]float64{100, 3}, nil, hw.CPU, hw.GPU, 2)
	b := q.PredictSpeedup([]float64{100, 3}, nil, hw.CPU, hw.GPU, 2)
	if a != b {
		t.Fatalf("prediction changed after round trip: %v vs %v", a, b)
	}
}

func TestLoadRejectsBadInput(t *testing.T) {
	for _, bad := range []string{
		"not json",
		`{"version": 99, "samples": []}`,
		`{"version": 1, "samples": [{"params":[1],"times":{"TPU": 1}}]}`,
		`{"version": 1, "samples": [{"params":[1],"times":{"CPU": -1}}]}`,
	} {
		if _, err := Load(strings.NewReader(bad)); err == nil {
			t.Fatalf("Load accepted %q", bad)
		}
	}
}

func TestProfileFeaturesNormalization(t *testing.T) {
	p := NewProfile()
	p.Add(Sample{Params: []float64{10, 0.5}, Times: [hw.NumKinds]float64{1, 1}})
	p.Add(Sample{Params: []float64{40, 2.0}, Times: [hw.NumKinds]float64{1, 1}})
	got := p.Features([]float64{20, 1.0})
	if len(got) != 2 || got[0] != 0.5 || got[1] != 0.5 {
		t.Fatalf("Features = %v, want [0.5 0.5]", got)
	}
	// In-profile parameters land in [0, 1]; the sign is dropped like the
	// maxima computation does.
	neg := p.Features([]float64{-40, 2.0})
	if neg[0] != 1 || neg[1] != 1 {
		t.Fatalf("Features(-40, 2) = %v, want [1 1]", neg)
	}
	// An empty profile normalizes by 1 (no information).
	if f := NewProfile().Features([]float64{3}); f[0] != 3 {
		t.Fatalf("empty-profile feature = %v, want 3", f[0])
	}
	// The Estimator facade exposes the same vector.
	e := New(p, 1)
	ef := e.Features([]float64{20, 1.0})
	if ef[0] != 0.5 || ef[1] != 0.5 {
		t.Fatalf("Estimator.Features = %v", ef)
	}
}
