package experiments

import (
	"fmt"

	"repro/internal/apps/nbia"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
)

func init() {
	register(Experiment{
		ID:       "fig8",
		Title:    "Intra-filter task assignment policies",
		PaperRef: "Figure 8",
		Run:      runFig8,
	})
	register(Experiment{
		ID:       "table4",
		Title:    "Tiles processed by the CPU per resolution (16% recalc)",
		PaperRef: "Table 4",
		Run:      runTable4,
	})
}

func runFig8(cfg Config) *Report {
	tiles := baseTiles(cfg)
	gpuOnly := metrics.Series{Label: "GPU-only", XLabel: "recalc rate %"}
	ddfcfs := metrics.Series{Label: "GPU+CPU DDFCFS"}
	ddwrr := metrics.Series{Label: "GPU+CPU DDWRR"}
	// Point grid: (rate, policy) with the three policies per rate.
	speedups := parallel.SweepMap(3*len(recalcRates), func(i int) float64 {
		c := nbiaCase{nodes: 1, tiles: tiles, rate: recalcRates[i/3],
			useGPU: true, cpuWorkers: 1, seed: cfg.Seed}
		switch i % 3 {
		case 0:
			c.pol, c.cpuWorkers = gpuOnlyPol(), 0
		case 1:
			c.pol = policy.DDFCFS(ddfcfsReq)
		default:
			c.pol = policy.DDWRR(ddwrrReq)
		}
		return c.run().Speedup
	})
	for ri, rate := range recalcRates {
		x := rate * 100
		gpuOnly.Add(x, speedups[3*ri])
		ddfcfs.Add(x, speedups[3*ri+1])
		ddwrr.Add(x, speedups[3*ri+2])
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("NBIA speedup over one CPU core, 1 node, %d tiles", tiles),
		[]metrics.Series{gpuOnly, ddfcfs, ddwrr})

	at := func(s metrics.Series, rate float64) float64 {
		for i, x := range s.X {
			if x == rate*100 {
				return s.Y[i]
			}
		}
		return 0
	}
	return &Report{
		ID: "fig8", Title: "Intra-filter task assignment policies", PaperRef: "Figure 8",
		Expectation: "DDFCFS only helps at 0% recalculation (both devices are equal on " +
			"32x32 tiles, so a second device roughly doubles throughput); at higher rates " +
			"DDFCFS adds little over GPU-only (16.78 vs 16.06 at 16%) while DDWRR nearly " +
			"doubles it (29.79).",
		Body:   body,
		Series: []metrics.Series{gpuOnly, ddfcfs, ddwrr},
		Checks: []Check{
			check("at 0%: adding a CPU under DDFCFS ~doubles GPU-only",
				at(ddfcfs, 0) >= 1.6*at(gpuOnly, 0),
				"DDFCFS %.2f vs GPU-only %.2f", at(ddfcfs, 0), at(gpuOnly, 0)),
			check("at 16%: DDFCFS adds little over GPU-only",
				at(ddfcfs, 0.16) <= 1.35*at(gpuOnly, 0.16),
				"DDFCFS %.1f vs GPU-only %.1f", at(ddfcfs, 0.16), at(gpuOnly, 0.16)),
			check("at 16%: DDWRR nearly doubles GPU-only",
				at(ddwrr, 0.16) >= 1.5*at(gpuOnly, 0.16),
				"DDWRR %.1f vs GPU-only %.1f", at(ddwrr, 0.16), at(gpuOnly, 0.16)),
			check("at 16%: DDWRR clearly beats DDFCFS",
				at(ddwrr, 0.16) >= 1.3*at(ddfcfs, 0.16),
				"DDWRR %.1f vs DDFCFS %.1f", at(ddwrr, 0.16), at(ddfcfs, 0.16)),
		},
	}
}

func runTable4(cfg Config) *Report {
	tiles := baseTiles(cfg)
	tb := metrics.Table{
		Title:  "Percent of tiles processed by the CPU, 16% recalculation",
		Header: []string{"Policy", "32x32 on CPU % (paper)", "32x32 on CPU % (ours)", "512x512 on CPU % (paper)", "512x512 on CPU % (ours)"},
	}
	paper := map[string][2]float64{"DDFCFS": {1.52, 14.70}, "DDWRR": {84.63, 0.16}}
	shares := map[string][2]float64{}
	policies := []struct {
		name string
		pol  policy.StreamPolicy
	}{{"DDFCFS", policy.DDFCFS(ddfcfsReq)}, {"DDWRR", policy.DDWRR(ddwrrReq)}}
	perPolicy := parallel.SweepMap(len(policies), func(i int) [2]float64 {
		res := nbiaCase{nodes: 1, tiles: tiles, rate: 0.16,
			pol: policies[i].pol, useGPU: true, cpuWorkers: 1, records: true, seed: cfg.Seed}.run()
		prof := metrics.ProfileBy(res.Records, func(r core.ProcRecord) int {
			return r.Payload.(*nbia.TileRef).Level
		})
		return [2]float64{prof.Percent(hw.CPU, 0), prof.Percent(hw.CPU, 1)}
	})
	for i, p := range policies {
		low, high := perPolicy[i][0], perPolicy[i][1]
		shares[p.name] = [2]float64{low, high}
		pp := paper[p.name]
		tb.AddRow(p.name,
			fmt.Sprintf("%.2f", pp[0]), fmt.Sprintf("%.2f", low),
			fmt.Sprintf("%.2f", pp[1]), fmt.Sprintf("%.2f", high))
	}
	return &Report{
		ID: "table4", Title: "Tiles processed by the CPU per resolution", PaperRef: "Table 4",
		Expectation: "DDWRR schedules the majority of low-resolution tiles to the CPU and " +
			"keeps high-resolution tiles off it (84.63% / 0.16% in the paper), while " +
			"DDFCFS mixes both resolutions onto the CPU.",
		Body: tb.Render(),
		Checks: []Check{
			check("DDWRR: CPU handles the majority of low-res tiles",
				shares["DDWRR"][0] >= 60, "%.1f%%", shares["DDWRR"][0]),
			check("DDWRR: CPU handles almost no high-res tiles",
				shares["DDWRR"][1] <= 5, "%.2f%%", shares["DDWRR"][1]),
			check("DDFCFS: CPU handles far more high-res tiles than DDWRR",
				shares["DDFCFS"][1] >= 3*shares["DDWRR"][1]+1,
				"DDFCFS %.2f%% vs DDWRR %.2f%%", shares["DDFCFS"][1], shares["DDWRR"][1]),
		},
	}
}
