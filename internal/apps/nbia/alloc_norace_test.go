//go:build !race

package nbia

import (
	"testing"

	"repro/internal/policy"
	"repro/internal/sim"
)

// TestNBIARunAllocs bounds the allocations a heterogeneous ODDS run makes
// per tile: the Fig. 14 cluster (7 CPU+GPU and 7 CPU-only nodes), 8%
// recalculation, asynchronous copies and estimator weights. Task births
// come from slabs with memoized speedups, the policy queues prune their
// dead entries in place, and the GPU batch path reuses its copy records,
// so what is left per tile is slab chunks and the growth of per-run
// arrays. The difference of two run sizes cancels the fixed cost of
// building the cluster, the runtime and the profile. Allocation counts are
// only meaningful without the race detector, so the test lives in this
// file.
func TestNBIARunAllocs(t *testing.T) {
	run := func(tiles int) func() {
		return func() {
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
	}
	const small, large = 2000, 8000
	perTile := (testing.AllocsPerRun(3, run(large)) - testing.AllocsPerRun(3, run(small))) / (large - small)
	t.Logf("%.3f allocations per tile", perTile)
	// Measured 0.096 per tile. The bound leaves ten times that, and it
	// still fails if any allocation comes back per task (1.08 tasks per
	// tile at 8% recalculation).
	const bound = 1.0
	if perTile > bound {
		t.Errorf("%.3f allocations per tile, want at most %v", perTile, bound)
	}
}
