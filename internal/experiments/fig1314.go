package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
)

func init() {
	register(Experiment{
		ID:       "fig13",
		Title:    "Scaling the homogeneous cluster",
		PaperRef: "Figure 13",
		Run:      runFig13,
	})
	register(Experiment{
		ID:       "fig14",
		Title:    "Scaling the heterogeneous cluster",
		PaperRef: "Figure 14",
		Run:      runFig14,
	})
}

// scalingConfig is one curve of Figures 13/14. The static policies are
// reported at their best request size for every point, as in the paper
// ("the DDWRR and DDFCFS results for each number of machines are the best
// among the different numbers of buffer requests, while ODDS automatically
// adapted it").
type scalingConfig struct {
	name string
	mk   func(int) policy.StreamPolicy // nil: fixed policy below
	pol  policy.StreamPolicy
	cpus int
}

func scalingPolicies() []scalingConfig {
	return []scalingConfig{
		{name: "GPU-only", pol: gpuOnlyPol(), cpus: 0},
		{name: "DDFCFS", mk: policy.DDFCFS, cpus: -1},
		{name: "DDWRR", mk: policy.DDWRR, cpus: -1},
		{name: "ODDS", pol: policy.ODDS(), cpus: -1},
	}
}

// runScalingPoint executes one curve point, searching request sizes for
// static policies.
func runScalingPoint(cfg Config, sc scalingConfig, c nbiaCase) float64 {
	if sc.mk != nil {
		return runBestStatic(c, sc.mk, searchSizes(cfg)).Speedup
	}
	c.pol = sc.pol
	return c.run().Speedup
}

func runFig13(cfg Config) *Report {
	tiles := scaleTiles(cfg)
	nodes := []int{1, 2, 4, 7, 14}
	if !cfg.Full {
		nodes = []int{1, 2, 7, 14}
	}
	var series []metrics.Series
	speedups := map[string]map[int]float64{}
	pols := scalingPolicies()
	// Point grid: (policy, node count), node counts contiguous per policy.
	points := parallel.SweepMap(len(pols)*len(nodes), func(i int) float64 {
		sc, n := pols[i/len(nodes)], nodes[i%len(nodes)]
		c := nbiaCase{nodes: n, tiles: tiles, rate: 0.08,
			useGPU: true, cpuWorkers: sc.cpus, seed: cfg.Seed}
		return runScalingPoint(cfg, sc, c)
	})
	for pi, sc := range pols {
		s := metrics.Series{Label: sc.name, XLabel: "nodes"}
		speedups[sc.name] = map[int]float64{}
		for ni, n := range nodes {
			sp := points[pi*len(nodes)+ni]
			s.Add(float64(n), sp)
			speedups[sc.name][n] = sp
		}
		series = append(series, s)
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("NBIA speedup over one CPU core, homogeneous CPU+GPU nodes, %d tiles, 8%% recalc", tiles),
		series)

	nMax := nodes[len(nodes)-1]
	return &Report{
		ID: "fig13", Title: "Scaling the homogeneous cluster", PaperRef: "Figure 13",
		Expectation: "DDFCFS barely improves on GPU-only; DDWRR doubles GPU-only; ODDS " +
			"performs best (15% over DDWRR in the paper) thanks to sender-side buffer " +
			"selection — all four scale with the node count.",
		Body:   body,
		Series: series,
		Checks: []Check{
			check("DDWRR ~doubles GPU-only at max scale",
				speedups["DDWRR"][nMax] >= 1.6*speedups["GPU-only"][nMax],
				"DDWRR %.0f vs GPU-only %.0f at %d nodes",
				speedups["DDWRR"][nMax], speedups["GPU-only"][nMax], nMax),
			check("DDFCFS adds comparatively little over GPU-only",
				speedups["DDFCFS"][nMax] <= 1.35*speedups["GPU-only"][nMax],
				"DDFCFS %.0f vs GPU-only %.0f", speedups["DDFCFS"][nMax], speedups["GPU-only"][nMax]),
			check("ODDS within 10% of (or above) hand-tuned DDWRR",
				speedups["ODDS"][nMax] >= 0.90*speedups["DDWRR"][nMax],
				"ODDS %.0f vs DDWRR %.0f (paper: ODDS +15%%; our DDWRR baseline is "+
					"exhaustively tuned, ODDS needs no tuning)",
				speedups["ODDS"][nMax], speedups["DDWRR"][nMax]),
			check("ODDS scales: >= 5x from 1 to 14 nodes",
				speedups["ODDS"][nMax] >= 5*speedups["ODDS"][nodes[0]],
				"%.0f at %d nodes vs %.0f at %d node(s)",
				speedups["ODDS"][nMax], nMax, speedups["ODDS"][nodes[0]], nodes[0]),
		},
	}
}

func runFig14(cfg Config) *Report {
	tiles := scaleTiles(cfg)
	nodes := []int{2, 4, 8, 14}
	var series []metrics.Series
	speedups := map[string]map[int]float64{}
	pols := scalingPolicies()
	// Point grid: (policy, node count), node counts contiguous per policy.
	points := parallel.SweepMap(len(pols)*len(nodes), func(i int) float64 {
		sc, n := pols[i/len(nodes)], nodes[i%len(nodes)]
		c := nbiaCase{hetero: true, nodes: n, tiles: tiles, rate: 0.08,
			useGPU: true, cpuWorkers: sc.cpus, seed: cfg.Seed}
		if sc.cpus == 0 {
			// GPU-only runs use only the GPU-equipped half.
			c.workers = gpuNodes(n)
		}
		return runScalingPoint(cfg, sc, c)
	})
	for pi, sc := range pols {
		s := metrics.Series{Label: sc.name, XLabel: "nodes"}
		speedups[sc.name] = map[int]float64{}
		for ni, n := range nodes {
			sp := points[pi*len(nodes)+ni]
			s.Add(float64(n), sp)
			speedups[sc.name][n] = sp
		}
		series = append(series, s)
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("NBIA speedup, heterogeneous cluster (50%% of nodes GPU-less), %d tiles, 8%% recalc", tiles),
		series)

	return &Report{
		ID: "fig14", Title: "Scaling the heterogeneous cluster", PaperRef: "Figure 14",
		Expectation: "ODDS almost doubles DDWRR on the heterogeneous cluster, and 14 " +
			"heterogeneous nodes under ODDS reach ~4x the speedup of the seven GPU-only " +
			"machines — mixing heterogeneous nodes pays off.",
		Body:   body,
		Series: series,
		Checks: []Check{
			check("ODDS clearly beats DDWRR at 14 nodes",
				speedups["ODDS"][14] >= 1.3*speedups["DDWRR"][14],
				"ODDS %.0f vs DDWRR %.0f (paper: ~2x)", speedups["ODDS"][14], speedups["DDWRR"][14]),
			check("ODDS on 14 heterogeneous nodes >= 2x the 7 GPU-only machines",
				speedups["ODDS"][14] >= 2*speedups["GPU-only"][14],
				"ODDS %.0f vs GPU-only(7 GPUs) %.0f (paper: ~4x)",
				speedups["ODDS"][14], speedups["GPU-only"][14]),
			check("policy ordering ODDS > DDWRR > DDFCFS at 14 nodes",
				speedups["ODDS"][14] > speedups["DDWRR"][14] &&
					speedups["DDWRR"][14] > speedups["DDFCFS"][14],
				"%.0f > %.0f > %.0f", speedups["ODDS"][14], speedups["DDWRR"][14],
				speedups["DDFCFS"][14]),
		},
	}
}
