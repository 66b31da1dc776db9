package experiments

import (
	"fmt"
	"math"

	"repro/internal/apps/nbia"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
)

func init() {
	register(Experiment{
		ID:       "table3",
		Title:    "CPU-only NBIA execution time vs recalculation rate",
		PaperRef: "Table 3",
		Run:      runTable3,
	})
}

// recalcRates are the x-axis of Table 3 and Figures 8-10.
var recalcRates = []float64{0, 0.04, 0.08, 0.12, 0.16, 0.20}

// paperTable3 are the paper's measured seconds at each rate.
var paperTable3 = []float64{30, 350, 665, 974, 1287, 1532}

func runTable3(cfg Config) *Report {
	tiles := baseTiles(cfg)
	// Scale the paper's expectations by the workload ratio when reduced.
	scale := float64(tiles) / 26742.0
	tb := metrics.Table{
		Title:  fmt.Sprintf("Single-CPU-core execution time, %d tiles, 2 resolution levels", tiles),
		Header: []string{"Recalc rate %", "Paper (s, scaled)", "Analytic model (s)", "Simulated 1-core run (s)"},
		Caption: "Analytic = exact sum of per-tile CPU costs; simulated = full runtime with " +
			"one CPU worker (the difference is runtime overhead, which must be negligible).",
	}
	type t3point struct{ analytic, simulated float64 }
	points := parallel.SweepMap(len(recalcRates), func(i int) t3point {
		rate := recalcRates[i]
		a := nbia.CPUOnlyTime(tiles, nbia.DefaultLevels, rate)
		c := nbiaCase{
			nodes: 1, tiles: tiles, rate: rate,
			pol: policy.DDFCFS(4), useGPU: false, cpuWorkers: 1, seed: cfg.Seed,
		}
		return t3point{analytic: float64(a), simulated: float64(c.run().Makespan)}
	})
	var analytic, simulated []float64
	for _, p := range points {
		analytic = append(analytic, p.analytic)
		simulated = append(simulated, p.simulated)
	}
	for i, rate := range recalcRates {
		tb.AddRow(fmt.Sprintf("%.0f", rate*100),
			fmt.Sprintf("%.0f", paperTable3[i]*scale),
			fmt.Sprintf("%.1f", analytic[i]),
			fmt.Sprintf("%.1f", simulated[i]))
	}
	monotone := true
	for i := 1; i < len(analytic); i++ {
		if analytic[i] <= analytic[i-1] {
			monotone = false
		}
	}
	worstDev := 0.0
	for i := range analytic {
		if p := paperTable3[i] * scale; p > 0 {
			if d := math.Abs(analytic[i]-p) / p; d > worstDev {
				worstDev = d
			}
		}
	}
	overhead := 0.0
	for i := range analytic {
		if o := simulated[i]/analytic[i] - 1; o > overhead {
			overhead = o
		}
	}
	return &Report{
		ID: "table3", Title: "CPU-only NBIA execution time vs recalculation rate", PaperRef: "Table 3",
		Expectation: "30 s at 0% growing linearly to 1532 s at 20% (26,742 tiles): the " +
			"high-resolution work dominates as the rate rises.",
		Body: tb.Render(),
		Checks: []Check{
			check("time grows monotonically with recalc rate", monotone,
				"analytic series %.0f..%.0f s", analytic[0], analytic[len(analytic)-1]),
			check("within 15% of the paper's (scaled) numbers", worstDev <= 0.15,
				"worst deviation = %.1f%%", worstDev*100),
			check("runtime overhead over analytic model <= 5%", overhead <= 0.05,
				"worst overhead = %.2f%%", overhead*100),
		},
	}
}
