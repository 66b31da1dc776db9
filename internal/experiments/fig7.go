package experiments

import (
	"fmt"

	"repro/internal/apps/vi"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

func init() {
	register(Experiment{
		ID:       "fig7",
		Title:    "Vector incrementer: execution time vs number of CUDA streams",
		PaperRef: "Figure 7",
		Run:      runFig7,
	})
	register(Experiment{
		ID:       "table2",
		Title:    "Best static stream count vs dynamic controller",
		PaperRef: "Table 2",
		Run:      runTable2,
	})
}

// viVector is the paper's 360M-integer vector; the VI simulation is cheap
// enough to run at paper scale even in reduced mode.
func viVector(cfg Config) int64 {
	return 360_000_000
}

var viChunks = []int64{100_000, 500_000, 1_000_000}
var viCounts = []int{1, 2, 4, 8, 16, 24, 32, 48, 64, 96, 128}

func runFig7(cfg Config) *Report {
	vec := viVector(cfg)
	var series []metrics.Series
	checks := []Check{}
	// Point grid: (chunk, stream count), stream counts contiguous per chunk.
	elapsed := parallel.SweepMap(len(viChunks)*len(viCounts), func(i int) float64 {
		r := vi.Run(vi.Config{
			VectorInts: vec,
			ChunkInts:  viChunks[i/len(viCounts)],
			Streams:    viCounts[i%len(viCounts)],
		})
		return float64(r.Elapsed)
	})
	for ci, chunk := range viChunks {
		s := metrics.Series{Label: fmt.Sprintf("chunk %dK", chunk/1000), XLabel: "concurrent streams"}
		for ni, n := range viCounts {
			s.Add(float64(n), elapsed[ci*len(viCounts)+ni])
		}
		series = append(series, s)
		bestX := metrics.ArgBest(s.X, s.Y, true)
		first, last := s.Y[0], s.Y[len(s.Y)-1]
		var bestY float64
		for i, x := range s.X {
			if x == bestX {
				bestY = s.Y[i]
			}
		}
		checks = append(checks,
			check(fmt.Sprintf("chunk %dK: interior optimum", chunk/1000),
				bestY < first && bestY < last,
				"t(1)=%.2fs t(best=%g)=%.2fs t(%d)=%.2fs",
				first, bestX, bestY, viCounts[len(viCounts)-1], last))
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("VI execution time (s), %dM-integer vector", vec/1_000_000), series)
	return &Report{
		ID: "fig7", Title: "VI: execution time vs number of CUDA streams", PaperRef: "Figure 7",
		Expectation: "more concurrent streams first improve throughput (transfer/compute " +
			"overlap), then hurt it (driver management overhead): unimodal curves whose " +
			"optimum depends on the chunk size; best times around 16.2 s.",
		Body:   body,
		Series: series,
		Checks: checks,
	}
}

func runTable2(cfg Config) *Report {
	vec := viVector(cfg)
	tb := metrics.Table{
		Title:  "Static search vs Algorithm 1",
		Header: []string{"Chunk size", "Best static streams", "Best static (s)", "Dynamic (s)", "Dynamic/static"},
		Caption: "The dynamic controller must be within a few percent of the best " +
			"statically-tuned stream count (paper: within one standard deviation, ~1%).",
	}
	checks := []Check{}
	type t2point struct {
		bestN      int
		bestT, dyn float64
	}
	points := parallel.SweepMap(len(viChunks), func(i int) t2point {
		chunk := viChunks[i]
		bestN, bestT := vi.BestStatic(vi.Config{VectorInts: vec, ChunkInts: chunk}, viCounts)
		dyn := vi.Run(vi.Config{VectorInts: vec, ChunkInts: chunk})
		return t2point{bestN: bestN, bestT: float64(bestT), dyn: float64(dyn.Elapsed)}
	})
	for ci, chunk := range viChunks {
		bestN, bestT := points[ci].bestN, points[ci].bestT
		dyn := points[ci].dyn
		ratio := dyn / bestT
		tb.AddRow(fmt.Sprintf("%dK", chunk/1000), fmt.Sprintf("%d", bestN),
			fmt.Sprintf("%.2f", bestT), fmt.Sprintf("%.2f", dyn),
			fmt.Sprintf("%.3f", ratio))
		checks = append(checks, check(
			fmt.Sprintf("chunk %dK: dynamic within 5%% of best static", chunk/1000),
			ratio <= 1.05, "ratio = %.3f", ratio))
	}
	return &Report{
		ID: "table2", Title: "Best static stream count vs dynamic controller", PaperRef: "Table 2",
		Expectation: "Algorithm 1's run-time search matches the best static configuration " +
			"(16.53/16.23/16.16 s vs 16.50/16.16/16.15 s in the paper).",
		Body:   tb.Render(),
		Checks: checks,
	}
}
