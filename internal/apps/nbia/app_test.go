package nbia

import (
	"math"
	"testing"

	"repro/internal/estimator"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
)

func TestCostModelCalibration(t *testing.T) {
	// Table 3: 26,742 tiles of 32x32 at recalc 0% take ~30 s on one core.
	total := CPUOnlyTime(26742, []int{32}, 0)
	if total < 29*sim.Second || total > 31*sim.Second {
		t.Fatalf("CPU-only 32x32 workload = %v, want ~30s", total)
	}
	// Table 3 at 16%: ~1287 s.
	t16 := CPUOnlyTime(26742, DefaultLevels, 0.16)
	if t16 < 1150*sim.Second || t16 > 1400*sim.Second {
		t.Fatalf("CPU-only @16%% = %v, want ~1287s", t16)
	}
}

func TestOracleSpeedupShape(t *testing.T) {
	// Figure 6: speedup ~1x at 32x32, ~33x at 512x512 (sync copy).
	var s32, s512 float64
	const n = 500
	for id := uint64(0); id < n; id++ {
		s32 += OracleSpeedup(id, 32, 0)
		s512 += OracleSpeedup(id, 512, 0)
	}
	s32 /= n
	s512 /= n
	if s32 < 0.7 || s32 > 1.5 {
		t.Fatalf("mean speedup @32 = %.2f, want ~1", s32)
	}
	if s512 < 25 || s512 > 40 {
		t.Fatalf("mean speedup @512 = %.2f, want ~33", s512)
	}
}

func TestRecalcRateIsExact(t *testing.T) {
	for _, rate := range []float64{0, 0.04, 0.08, 0.16, 0.2, 1} {
		const n = 10000
		count := 0
		for id := uint64(0); id < n; id++ {
			if recalcNeeded(id, 0, rate) {
				count++
			}
		}
		want := rate * n
		if math.Abs(float64(count)-want) > 2 {
			t.Fatalf("rate %.2f: recalculated %d of %d, want %.0f", rate, count, n, want)
		}
	}
}

func TestContentFactorMeanIsOne(t *testing.T) {
	sum := 0.0
	const n = 20000
	for id := uint64(0); id < n; id++ {
		sum += contentFactor(id, 0)
	}
	if mean := sum / n; mean < 0.99 || mean > 1.01 {
		t.Fatalf("content factor mean = %f", mean)
	}
}

func TestCPUOnlyRunMatchesAnalytic(t *testing.T) {
	// A 1-core, 1-node run with FIFO scheduling must take essentially the
	// analytic single-core time (scheduling overhead is virtualized away).
	k := sim.NewKernel(1)
	cl := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 1}}, nil)
	res, err := Run(Config{
		Cluster: cl, Tiles: 400, RecalcRate: 0.1,
		Policy: policy.DDFCFS(4), CPUWorkers: 1, Weights: WeightUniform,
	})
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(res.Makespan) / float64(res.CPUOnly)
	if ratio < 0.99 || ratio > 1.05 {
		t.Fatalf("1-core makespan/analytic = %f (makespan %v, analytic %v)",
			ratio, res.Makespan, res.CPUOnly)
	}
	if res.Speedup < 0.95 || res.Speedup > 1.01 {
		t.Fatalf("speedup = %f, want ~1", res.Speedup)
	}
}

func runNBIA(t *testing.T, hetero bool, nodes, tiles int, rate float64,
	pol policy.StreamPolicy, cpuWorkers int) *Result {
	t.Helper()
	k := sim.NewKernel(2)
	var cl *hw.Cluster
	if hetero {
		cl = HeteroCluster(k, nodes)
	} else {
		cl = HomoCluster(k, nodes)
	}
	res, err := Run(Config{
		Cluster: cl, Tiles: tiles, RecalcRate: rate,
		Policy: pol, UseGPU: true, CPUWorkers: cpuWorkers,
		AsyncCopy: true, Weights: WeightEstimator, Seed: 5,
		RecordProcs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestDDWRRBeatsGPUOnly(t *testing.T) {
	// Section 6.3: adding one CPU core under DDWRR nearly doubles the
	// GPU-only performance at nonzero recalculation rates.
	gpuOnly := runNBIA(t, false, 1, 26742, 0.16, policy.DDFCFS(8), 0).Speedup
	ddwrr := runNBIA(t, false, 1, 26742, 0.16, policy.DDWRR(32), 1).Speedup
	if gpuOnly < 10 {
		t.Fatalf("GPU-only speedup = %.1f, want >> 1", gpuOnly)
	}
	if ddwrr < 1.5*gpuOnly {
		t.Fatalf("DDWRR (%.1f) should nearly double GPU-only (%.1f)", ddwrr, gpuOnly)
	}
}

func TestDDWRRBeatsDDFCFSAtHighRecalc(t *testing.T) {
	fcfs := runNBIA(t, false, 1, 26742, 0.16, policy.DDFCFS(4), 1).Speedup
	wrr := runNBIA(t, false, 1, 26742, 0.16, policy.DDWRR(32), 1).Speedup
	if wrr <= 1.3*fcfs {
		t.Fatalf("DDWRR (%.1f) should clearly beat DDFCFS (%.1f) at 16%% recalc", wrr, fcfs)
	}
}

func TestDDWRRSteersLowResToCPU(t *testing.T) {
	// Table 4 @16%: under DDWRR the CPU processes the vast majority of
	// low-resolution tiles and almost no high-resolution ones.
	res := runNBIA(t, false, 1, 26742, 0.16, policy.DDWRR(32), 1)
	counts := map[hw.Kind]map[int]int{hw.CPU: {}, hw.GPU: {}}
	for _, r := range res.Records {
		counts[r.Kind][r.Payload.(*TileRef).Level]++
	}
	lowOnCPU := float64(counts[hw.CPU][0]) / 26742
	highOnCPU := float64(counts[hw.CPU][1]) / float64(counts[hw.CPU][1]+counts[hw.GPU][1])
	if lowOnCPU < 0.6 {
		t.Fatalf("CPU processed %.1f%% of low-res tiles, want majority", lowOnCPU*100)
	}
	if highOnCPU > 0.05 {
		t.Fatalf("CPU processed %.1f%% of high-res tiles, want ~0", highOnCPU*100)
	}
}

func TestODDSBeatsDDWRROnHeterogeneousNodes(t *testing.T) {
	// Section 6.4.2: with a CPU-only second node, ODDS pulls far ahead of
	// DDWRR because buffers are selected at the sender.
	ddwrr := runNBIA(t, true, 2, 26742, 0.08, policy.DDWRR(32), -1).Speedup
	odds := runNBIA(t, true, 2, 26742, 0.08, policy.ODDS(), -1).Speedup
	if odds <= 1.2*ddwrr {
		t.Fatalf("ODDS (%.1f) should clearly beat DDWRR (%.1f) on the heterogeneous base case", odds, ddwrr)
	}
}

func TestRunDeterminism(t *testing.T) {
	run := func() sim.Time {
		k := sim.NewKernel(11)
		cl := HeteroCluster(k, 3)
		res, err := Run(Config{
			Cluster: cl, Tiles: 1000, RecalcRate: 0.1,
			Policy: policy.ODDS(), UseGPU: true, CPUWorkers: -1,
			AsyncCopy: true, Weights: WeightEstimator, Seed: 9,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.Makespan
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("nondeterministic: %v vs %v", a, b)
	}
}

func TestProcRecordsCoverAllTiles(t *testing.T) {
	k := sim.NewKernel(12)
	cl := HomoCluster(k, 1)
	res, err := Run(Config{
		Cluster: cl, Tiles: 500, RecalcRate: 0.2,
		Policy: policy.DDWRR(8), UseGPU: true, CPUWorkers: 1,
		AsyncCopy: true, Weights: WeightOracle, RecordProcs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	low, high := 0, 0
	for _, r := range res.Records {
		switch r.Payload.(*TileRef).Level {
		case 0:
			low++
		case 1:
			high++
		}
	}
	if low != 500 {
		t.Fatalf("low-res records = %d, want 500", low)
	}
	if math.Abs(float64(high)-100) > 2 {
		t.Fatalf("high-res records = %d, want ~100 (20%%)", high)
	}
	if int64(low+high) != res.Completed {
		t.Fatalf("records %d != completed %d", low+high, res.Completed)
	}
}

func TestThreeLevelPyramid(t *testing.T) {
	// NBIA's multi-resolution analysis generalizes past two levels: tiles
	// rejected at 32x32 go to 128x128, and rejected again to 512x512.
	k := sim.NewKernel(9)
	cl := HomoCluster(k, 1)
	res, err := Run(Config{
		Cluster: cl, Tiles: 2000, Levels: []int{32, 128, 512}, RecalcRate: 0.2,
		Policy: policy.DDWRR(16), UseGPU: true, CPUWorkers: 1,
		AsyncCopy: true, Weights: WeightOracle, RecordProcs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	perLevel := map[int]int{}
	for _, r := range res.Records {
		perLevel[r.Payload.(*TileRef).Level]++
	}
	if perLevel[0] != 2000 {
		t.Fatalf("level 0 count = %d", perLevel[0])
	}
	// ~20% escalate to level 1, ~20% of those to level 2.
	if math.Abs(float64(perLevel[1])-400) > 8 {
		t.Fatalf("level 1 count = %d, want ~400", perLevel[1])
	}
	if math.Abs(float64(perLevel[2])-80) > 8 {
		t.Fatalf("level 2 count = %d, want ~80", perLevel[2])
	}
	if res.Completed != int64(perLevel[0]+perLevel[1]+perLevel[2]) {
		t.Fatalf("completed = %d vs records %v", res.Completed, perLevel)
	}
	// The analytic reference covers the same chain.
	ratio := float64(res.Makespan) / float64(res.CPUOnly)
	if ratio <= 0 || ratio >= 1 {
		t.Fatalf("speedup ratio %v out of range", ratio)
	}
}

func TestIDOffsetChangesWorkloadNotStatistics(t *testing.T) {
	a := CPUOnlyTimeOffset(5000, DefaultLevels, 0.08, 0)
	b := CPUOnlyTimeOffset(5000, DefaultLevels, 0.08, 1_000_003)
	if a == b {
		t.Fatal("offset did not change the workload")
	}
	// Same statistics: totals within a few percent.
	if r := float64(a) / float64(b); r < 0.95 || r > 1.05 {
		t.Fatalf("offset changed workload statistics: ratio %v", r)
	}
}

func TestEstimatorProfileQuality(t *testing.T) {
	// The NBIA phase-one profile must rank tile sizes correctly for
	// scheduling: predicted GPU speedup grows with tile size.
	p := BuildProfile(DefaultLevels, 30, 1)
	est := estimator.New(p, 2)
	prev := -1.0
	for _, edge := range []int{32, 64, 128, 256, 512} {
		sp := est.Speedup(hw.GPU, []float64{float64(edge)}, nil)
		if sp <= prev {
			t.Fatalf("predicted speedup not increasing at %d: %v <= %v", edge, sp, prev)
		}
		prev = sp
	}
}

func TestUnfusedPipelineCorrectAndSlower(t *testing.T) {
	// The unfused variant (color conversion and feature extraction as
	// separate GPU filters) must process every tile exactly twice per
	// level attempt and pay for the extra kernel launches and La*b*
	// round trips — the overhead the paper eliminated by fusing.
	run := func(unfused bool) (*Result, int) {
		k := sim.NewKernel(4)
		cl := HomoCluster(k, 1)
		res, err := Run(Config{
			Cluster: cl, Tiles: 3000, RecalcRate: 0.08,
			Policy: policy.DDWRR(16), UseGPU: true, CPUWorkers: 1,
			AsyncCopy: true, Weights: WeightOracle, Unfused: unfused,
			RecordProcs: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res, len(res.Records)
	}
	fused, fusedRecs := run(false)
	unfused, unfusedRecs := run(true)
	if unfusedRecs != 2*fusedRecs {
		t.Fatalf("unfused records = %d, want 2x fused (%d)", unfusedRecs, fusedRecs)
	}
	if unfused.Makespan <= fused.Makespan {
		t.Fatalf("unfused (%v) should be slower than fused (%v)", unfused.Makespan, fused.Makespan)
	}
	overhead := float64(unfused.Makespan)/float64(fused.Makespan) - 1
	if overhead > 2 {
		t.Fatalf("unfused overhead %.0f%% implausibly large", overhead*100)
	}
	// Each tile attempt becomes two lineages when unfused (the forward
	// from color conversion to feature extraction starts a new one).
	if unfused.Completed != 2*fused.Completed {
		t.Fatalf("lineages: unfused %d, want 2x fused (%d)", unfused.Completed, fused.Completed)
	}
}

func TestUnfusedRecalcGoesThroughColorConversion(t *testing.T) {
	// Resubmitted high-resolution tiles must re-enter at the reader and be
	// color-converted again (resubmit routes to the chain's root).
	k := sim.NewKernel(4)
	cl := HomoCluster(k, 1)
	res, err := Run(Config{
		Cluster: cl, Tiles: 1000, RecalcRate: 0.2,
		Policy: policy.DDFCFS(8), UseGPU: true, CPUWorkers: 1,
		AsyncCopy: true, Weights: WeightOracle, Unfused: true,
		RecordProcs: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]map[int]int{}
	for _, r := range res.Records {
		if counts[r.Filter] == nil {
			counts[r.Filter] = map[int]int{}
		}
		counts[r.Filter][r.Payload.(*TileRef).Level]++
	}
	if counts["colorconv"][1] == 0 {
		t.Fatalf("no high-res tiles through color conversion: %v", counts)
	}
	if counts["colorconv"][1] != counts["features"][1] {
		t.Fatalf("stage mismatch at level 1: %v", counts)
	}
}
