package experiments

import (
	"fmt"

	"repro/internal/metrics"
	"repro/internal/parallel"
)

func init() {
	register(Experiment{
		ID:       "fig6",
		Title:    "NBIA GPU speedup vs tile size, synchronous vs asynchronous copy",
		PaperRef: "Figure 6",
		Run:      runFig6,
	})
}

func runFig6(cfg Config) *Report {
	sizes := []int{32, 64, 128, 256, 512}
	tiles := baseTiles(cfg)
	syncS := metrics.Series{Label: "Synchronous copy", XLabel: "tile edge (px)"}
	asyncS := metrics.Series{Label: "Asynchronous copy"}
	// Point grid: (edge, sync) pairs, sync first within each edge.
	speedups := parallel.SweepMap(2*len(sizes), func(i int) float64 {
		c := nbiaCase{
			nodes: 1, tiles: tiles, levels: []int{sizes[i/2]}, rate: 0,
			pol: gpuOnlyPol(), useGPU: true, cpuWorkers: 0,
			sync: i%2 == 0, seed: cfg.Seed,
		}
		return c.run().Speedup
	})
	for si, edge := range sizes {
		syncS.Add(float64(edge), speedups[2*si])
		asyncS.Add(float64(edge), speedups[2*si+1])
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("GPU speedup over one CPU core (%d single-resolution tiles)", tiles),
		[]metrics.Series{syncS, asyncS})

	s32 := syncS.Y[0]
	s512 := syncS.Y[len(syncS.Y)-1]
	a512 := asyncS.Y[len(asyncS.Y)-1]
	gain := (a512/s512 - 1) * 100
	monotone := true
	for i := 1; i < len(syncS.Y); i++ {
		if syncS.Y[i] <= syncS.Y[i-1] {
			monotone = false
		}
	}
	return &Report{
		ID: "fig6", Title: "NBIA GPU speedup vs tile size", PaperRef: "Figure 6",
		Expectation: "relative GPU performance is strongly data-dependent: ~1x at 32x32 " +
			"tiles up to ~33x at 512x512 (synchronous copy); asynchronous copy removes " +
			"~83% of the transfer overhead, worth ~20% at 512x512.",
		Body:   body,
		Series: []metrics.Series{syncS, asyncS},
		Checks: []Check{
			check("speedup ~1x at 32x32", s32 > 0.5 && s32 < 2,
				"sync speedup @32 = %.2f", s32),
			check("speedup grows monotonically with tile size", monotone,
				"sync series = %.1f .. %.1f", s32, s512),
			check("speedup >= 20x at 512x512", s512 >= 20,
				"sync speedup @512 = %.1f", s512),
			check("async copy gains >= 10% at 512x512", gain >= 10,
				"async gain @512 = %.1f%% (paper ~20%%)", gain),
		},
	}
}
