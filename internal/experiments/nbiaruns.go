package experiments

import (
	"fmt"

	"repro/internal/apps/nbia"
	"repro/internal/policy"
	"repro/internal/sim"
)

// nbiaCase describes one NBIA run for the Section 6 experiments.
type nbiaCase struct {
	hetero     bool
	nodes      int
	tiles      int
	levels     []int
	rate       float64
	pol        policy.StreamPolicy
	useGPU     bool
	cpuWorkers int
	sync       bool // synchronous copies (default async)
	workers    []int
	records    bool
	targets    bool
	intervals  bool // record device busy intervals (hw.Device.Intervals)
	seed       int64
}

// baseTiles is the per-config workload of Sections 6.1-6.4.2.
func baseTiles(cfg Config) int {
	if cfg.Full {
		return 26742
	}
	return 8000
}

// scaleTiles is the workload of the scaling study (Section 6.4.3).
func scaleTiles(cfg Config) int {
	if cfg.Full {
		return 267420
	}
	return 26742
}

// gpuOnlyPol is the stream policy used for GPU-only baselines (irrelevant
// which, there is a single device class).
func gpuOnlyPol() policy.StreamPolicy { return policy.DDFCFS(8) }

// Static request sizes for the baseline policies, matching the regime the
// paper's Figure 11 search lands in: DDFCFS prefers small requests (less
// imbalance), DDWRR needs a deep queue for intra-filter sorting to act.
// policy.Paper runs the two policies at the same sizes.
const (
	ddfcfsReq = 4
	ddwrrReq  = 32
)

// run executes the case and returns the result.
func (c nbiaCase) run() *nbia.Result {
	k := sim.NewKernel(c.seed)
	var cl = nbia.HomoCluster(k, c.nodes)
	if c.hetero {
		cl = nbia.HeteroCluster(k, c.nodes)
	}
	if c.intervals {
		for _, d := range cl.Devices() {
			d.SetRecordIntervals(true)
		}
	}
	res, err := nbia.Run(nbia.Config{
		Cluster:       cl,
		Tiles:         c.tiles,
		Levels:        c.levels,
		RecalcRate:    c.rate,
		Policy:        c.pol,
		UseGPU:        c.useGPU,
		CPUWorkers:    c.cpuWorkers,
		AsyncCopy:     !c.sync,
		Workers:       c.workers,
		Weights:       nbia.WeightEstimator,
		Seed:          c.seed + 17,
		RecordProcs:   c.records,
		RecordTargets: c.targets,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: nbia run failed: %v", err))
	}
	return res
}

// gpuNodes lists the GPU-equipped node IDs of an n-node heterogeneous
// cluster (the first ceil(n/2)).
func gpuNodes(n int) []int {
	out := make([]int, 0, (n+1)/2)
	for i := 0; i < (n+1)/2; i++ {
		out = append(out, i)
	}
	return out
}

// searchSizes is the static streamRequestsSize grid used when reproducing
// the paper's "best among the different numbers of buffer requests"
// comparisons (Figures 10, 13 and 14 all report the static policies at
// their exhaustively-searched best).
func searchSizes(cfg Config) []int {
	if cfg.Full {
		return []int{4, 16, 64}
	}
	return []int{2, 8, 32}
}

// runBestStatic runs the case once per candidate request size with the
// policy constructor and returns the best (lowest-makespan) result.
func runBestStatic(c nbiaCase, mk func(int) policy.StreamPolicy, sizes []int) *nbia.Result {
	var best *nbia.Result
	for _, size := range sizes {
		cc := c
		cc.pol = mk(size)
		res := cc.run()
		if best == nil || res.Makespan < best.Makespan {
			best = res
		}
	}
	return best
}
