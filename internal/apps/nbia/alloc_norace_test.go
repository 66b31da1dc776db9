//go:build !race

package nbia

import (
	"runtime"
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// TestNBIARunAllocs bounds the allocations a heterogeneous ODDS run makes
// per tile, in count and in bytes. Task births draw from slabs, GPU batches
// reuse their state, the estimator memoizes its answers and the queues
// recycle their arrays, so what is left per tile is slab chunks and the
// growth of per-run arrays. Released task records are handed out again
// and the devices record no busy intervals, so the bytes are not a Task
// record or an Interval per buffer either. The difference of two run sizes
// cancels the fixed cost of building the cluster, the runtime and the
// profile. Allocation counts are only meaningful without the race
// detector, so the test lives in this file.
func TestNBIARunAllocs(t *testing.T) {
	run := func(tiles int) {
		_, err := Run(Config{
			Cluster:    HeteroCluster(sim.NewKernel(1), 14),
			Tiles:      tiles,
			RecalcRate: 0.08,
			Policy:     policy.ODDS(),
			UseGPU:     true,
			CPUWorkers: -1,
			AsyncCopy:  true,
			Weights:    WeightEstimator,
			Seed:       18,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	// perRun is testing.AllocsPerRun that also reports bytes: one warm-up
	// run, then the mean of three, on one P.
	perRun := func(tiles int) (allocs, bytes float64) {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		run(tiles)
		const runs = 3
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < runs; i++ {
			run(tiles)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / runs, float64(m1.TotalAlloc-m0.TotalAlloc) / runs
	}
	const small, large = 2000, 8000
	sa, sb := perRun(small)
	la, lb := perRun(large)
	allocsPerTile, bytesPerTile := (la-sa)/(large-small), (lb-sb)/(large-small)
	t.Logf("%.3f allocations, %.0f B per tile", allocsPerTile, bytesPerTile)
	// Measured 0.072 allocations per tile. The bound leaves over ten times
	// that, and it still fails if any allocation comes back per task (1.08
	// tasks per tile at 8% recalculation).
	const allocBound = 1.0
	if allocsPerTile > allocBound {
		t.Errorf("%.3f allocations per tile, want at most %v", allocsPerTile, allocBound)
	}
	// Measured 41 B per tile. Recording busy intervals on every device
	// again measured 104 B, and a run that stops recycling Task records (160
	// B each) 201 B, so either crosses the bound.
	const byteBound = 80
	if bytesPerTile > byteBound {
		t.Errorf("%.0f B per tile, want at most %v", bytesPerTile, byteBound)
	}
}
