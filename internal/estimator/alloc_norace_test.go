//go:build !race

package estimator

import (
	"testing"

	"repro/internal/hw"
)

// TestSpeedupAllocs requires a speedup estimate with k <= smallK to
// allocate nothing: the runtime asks for one per task it creates.
func TestSpeedupAllocs(t *testing.T) {
	p := NewProfile()
	for i := 0; i < 64; i++ {
		p.Add(sample([]float64{float64(i % 9), float64(i % 5)}, float64(1+i), 1))
	}
	params := []float64{3, 2}
	for _, k := range []int{1, 2, smallK} {
		e := New(p, k)
		if n := testing.AllocsPerRun(100, func() { _ = e.Speedup(hw.GPU, params, nil) }); n != 0 {
			t.Errorf("k=%d: Speedup allocates %v times per estimate, want 0", k, n)
		}
	}
}
