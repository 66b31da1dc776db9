package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/apps/microbench"
	"repro/internal/apps/nbia"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "ablation",
		Title:    "Ablation of the runtime mechanisms (extension)",
		PaperRef: "DESIGN.md implementation notes",
		Run:      runAblation,
	})
	register(Experiment{
		ID:       "models",
		Title:    "Estimator model comparison (extension; paper future work)",
		PaperRef: "Section 7 future work",
		Run:      runModels,
	})
	register(Experiment{
		ID:       "gpusharing",
		Title:    "Concurrent GPU task execution (extension; paper future work)",
		PaperRef: "Section 7 future work",
		Run:      runGPUSharing,
	})
}

// ablationNBIA runs ODDS on the 14-node homogeneous cluster with the given
// runtime tunables and weight mode. The cluster-scale configuration is
// where every mechanism is load-bearing: request pipelining covers remote
// bulk transfers, the demand floor feeds 14 GPU pipelines, and the weights
// steer 28 workers.
func ablationNBIA(cfg Config, tun core.Tunables, weights nbia.WeightMode) *nbia.Result {
	k := sim.NewKernel(cfg.Seed)
	cl := nbia.HomoCluster(k, 14)
	res, err := nbia.Run(nbia.Config{
		Cluster: cl, Tiles: 26742, RecalcRate: 0.08,
		Policy: policy.ODDS(), UseGPU: true, CPUWorkers: -1,
		AsyncCopy: true, Weights: weights, Seed: cfg.Seed + 17,
		Tunables: &tun,
	})
	if err != nil {
		panic(err)
	}
	return res
}

func runAblation(cfg Config) *Report {
	type variant struct {
		name    string
		tun     core.Tunables
		weights nbia.WeightMode
	}
	variants := []variant{
		{"defaults (reproduction)", core.Tunables{}, nbia.WeightEstimator},
		{"oracle weights (upper bound)", core.Tunables{}, nbia.WeightOracle},
		{"uniform weights (no estimator)", core.Tunables{}, nbia.WeightUniform},
		{"greedy GPU batching (no affinity bound)", core.Tunables{BatchAffinityRatio: -1}, nbia.WeightEstimator},
		{"serial requester (literal Algorithm 3)", core.Tunables{SerialRequester: true}, nbia.WeightEstimator},
		{"no pipeline demand floor", core.Tunables{NoPipelineDemandFloor: true}, nbia.WeightEstimator},
		{"DQAA floor 1 (literal Algorithm 2)", core.Tunables{DQAAFloor: 1}, nbia.WeightEstimator},
		{"all literal readings combined", core.Tunables{BatchAffinityRatio: -1,
			SerialRequester: true, NoPipelineDemandFloor: true, DQAAFloor: 1}, nbia.WeightEstimator},
	}
	tb := metrics.Table{
		Title:   "ODDS on 14 homogeneous nodes (26,742 tiles, 8% recalc), one mechanism changed at a time",
		Header:  []string{"Variant", "Speedup", "vs defaults"},
		Caption: "Each row flips one of the implementation decisions recorded in DESIGN.md.",
	}
	perVariant := parallel.SweepMap(len(variants), func(i int) float64 {
		return ablationNBIA(cfg, variants[i].tun, variants[i].weights).Speedup
	})
	speedups := map[string]float64{}
	for i, v := range variants {
		speedups[v.name] = perVariant[i]
	}
	base := speedups[variants[0].name]
	for _, v := range variants {
		tb.AddRow(v.name, fmt.Sprintf("%.1f", speedups[v.name]),
			fmt.Sprintf("%+.1f%%", (speedups[v.name]/base-1)*100))
	}
	return &Report{
		ID: "ablation", Title: "Ablation of the runtime mechanisms", PaperRef: "DESIGN.md",
		Expectation: "the reproduction's defaults should be near the oracle-weight upper " +
			"bound; removing the estimator (uniform weights) must cost heavily, and the " +
			"literal pseudo-code readings (serial requests, depth-1 queues, greedy " +
			"batching) must cost performance — individually the remaining mechanisms " +
			"mask much of each single change, so the combined variant shows the gap.",
		Body: tb.Render(),
		Checks: []Check{
			check("estimator weights close to oracle weights",
				base >= 0.88*speedups["oracle weights (upper bound)"],
				"estimator %.1f vs oracle %.1f", base, speedups["oracle weights (upper bound)"]),
			check("uniform weights clearly worse than estimator weights",
				speedups["uniform weights (no estimator)"] <= 0.85*base,
				"uniform %.1f vs estimator %.1f", speedups["uniform weights (no estimator)"], base),
			check("greedy GPU batching never significantly better",
				speedups["greedy GPU batching (no affinity bound)"] <= 1.05*base,
				"greedy %.1f vs bounded %.1f",
				speedups["greedy GPU batching (no affinity bound)"], base),
			check("request pipelining matters (>10% at cluster scale)",
				speedups["serial requester (literal Algorithm 3)"] <= 0.9*base,
				"serial %.1f vs pipelined %.1f",
				speedups["serial requester (literal Algorithm 3)"], base),
			check("GPU pipeline demand floor matters",
				speedups["no pipeline demand floor"] <= 0.95*base,
				"no floor %.1f vs defaults %.1f", speedups["no pipeline demand floor"], base),
			check("DQAA floor 2 beats the literal floor 1",
				speedups["DQAA floor 1 (literal Algorithm 2)"] <= 0.99*base,
				"floor 1 %.1f vs floor 2 %.1f",
				speedups["DQAA floor 1 (literal Algorithm 2)"], base),
			check("combined literal reading clearly worse",
				speedups["all literal readings combined"] <= 0.75*base,
				"literal %.1f vs defaults %.1f",
				speedups["all literal readings combined"], base),
		},
	}
}

func runModels(cfg Config) *Report {
	tb := metrics.Table{
		Title:  "Cross-validated errors per model, averaged over the six Table 1 workloads (30 jobs, 10 folds)",
		Header: []string{"Model", "Mean speedup err %", "Worst speedup err %", "Mean CPU time err %"},
		Caption: "The paper's future work asks whether more sophisticated learners beat " +
			"kNN; for the speedup target the answer is 'not by much' — the ratio is " +
			"already easy, and every model confirms speedup << time error.",
	}
	type agg struct {
		name        string
		sum, worst  float64
		timeSum     float64
		speedupErrs []float64
	}
	var aggs []agg
	for _, tr := range estimator.DefaultModels() {
		a := agg{}
		for wi, w := range microbench.Workloads {
			rng := rand.New(rand.NewSource(cfg.Seed + int64(wi)*1000))
			p := estimator.NewProfile()
			for i := 0; i < 30; i++ {
				p.Add(w.Gen(rng))
			}
			rep := estimator.CrossValidateModel(p, tr, 10, cfg.Seed+1)
			a.name = rep.Model
			a.sum += rep.SpeedupErrPct
			a.timeSum += rep.CPUTimeErrPct
			if rep.SpeedupErrPct > a.worst {
				a.worst = rep.SpeedupErrPct
			}
			a.speedupErrs = append(a.speedupErrs, rep.SpeedupErrPct)
		}
		aggs = append(aggs, a)
	}
	n := float64(len(microbench.Workloads))
	ratioHolds := true
	var knnMean float64
	bestMean := -1.0
	for _, a := range aggs {
		mean := a.sum / n
		tb.AddRow(a.name, fmt.Sprintf("%.2f", mean), fmt.Sprintf("%.2f", a.worst),
			fmt.Sprintf("%.2f", a.timeSum/n))
		if a.sum >= a.timeSum {
			ratioHolds = false
		}
		if a.name == "kNN" {
			knnMean = mean
		}
		if bestMean < 0 || mean < bestMean {
			bestMean = mean
		}
	}
	return &Report{
		ID: "models", Title: "Estimator model comparison", PaperRef: "Section 7 future work",
		Expectation: "evaluating 'more sophisticated model learning algorithms' (the " +
			"paper's future work): all models predict speedup far better than time, and " +
			"kNN remains competitive with parametric alternatives.",
		Body: tb.Render(),
		Checks: []Check{
			check("speedup error < time error for every model", ratioHolds,
				"per-model mean comparison"),
			check("kNN within 2x of the best model's mean speedup error",
				knnMean <= 2*bestMean+1,
				"kNN %.2f%% vs best %.2f%%", knnMean, bestMean),
		},
	}
}

func runGPUSharing(cfg Config) *Report {
	// NBIA, single node, GPU-only: one vs two GPU worker threads on a
	// concurrency-2 device. With NBIA's large kernels the gain comes from
	// overlapping one pipeline's transfers with the other's kernels plus
	// partial kernel concurrency.
	run := func(workers int) float64 {
		k := sim.NewKernel(cfg.Seed)
		cl := nbia.HomoCluster(k, 1)
		cl.Nodes[0].GPU.SetConcurrency(2, 0.7)
		res, err := nbia.Run(nbia.Config{
			Cluster: cl, Tiles: baseTiles(cfg), RecalcRate: 0.08,
			Policy: gpuOnlyPol(), UseGPU: true, GPUWorkers: workers, CPUWorkers: 0,
			AsyncCopy: true, Weights: nbia.WeightEstimator, Seed: cfg.Seed + 17,
		})
		if err != nil {
			panic(err)
		}
		return res.Speedup
	}
	one := run(1)
	two := run(2)
	tb := metrics.Table{
		Title:  fmt.Sprintf("GPU-only NBIA, %d tiles, 8%% recalc, concurrency-2 GPU (70%% co-run penalty)", baseTiles(cfg)),
		Header: []string{"GPU worker threads", "Speedup"},
	}
	tb.AddRow("1", fmt.Sprintf("%.1f", one))
	tb.AddRow("2", fmt.Sprintf("%.1f", two))
	gain := (two/one - 1) * 100
	return &Report{
		ID: "gpusharing", Title: "Concurrent GPU task execution", PaperRef: "Section 7 future work",
		Expectation: "the paper's future work: running multiple tasks concurrently on one " +
			"GPU should add modest throughput (kernel concurrency is partial) without any " +
			"application change.",
		Body: tb.Render(),
		Checks: []Check{
			check("two GPU workers beat one", two > one, "gain = %.1f%%", gain),
			check("gain bounded by the contention model (< 40%)", two < 1.4*one,
				"gain = %.1f%%", gain),
		},
	}
}
