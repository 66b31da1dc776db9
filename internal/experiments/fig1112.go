package experiments

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
)

func init() {
	register(Experiment{
		ID:       "fig11",
		Title:    "Best static streamRequestsSize per policy and recalculation rate",
		PaperRef: "Figure 11",
		Run:      runFig11,
	})
	register(Experiment{
		ID:       "fig12",
		Title:    "ODDS in detail: CPU utilization and dynamic request sizes",
		PaperRef: "Figure 12",
		Run:      runFig12,
	})
}

func runFig11(cfg Config) *Report {
	tiles := baseTiles(cfg)
	rates := recalcRates
	sizes := []int{1, 2, 4, 8, 16, 32, 64}
	if !cfg.Full {
		rates = []float64{0.04, 0.12, 0.20}
		sizes = []int{1, 2, 4, 8, 16, 32}
	}
	fcfsBest := metrics.Series{Label: "DDFCFS best size", XLabel: "recalc rate %"}
	wrrBest := metrics.Series{Label: "DDWRR best size"}
	mks := []func(int) policy.StreamPolicy{policy.DDFCFS, policy.DDWRR}
	// Point grid: (rate, policy, size) — the full exhaustive search is one
	// flat sweep; the per-(rate, policy) argmin reduction happens below.
	makespans := parallel.SweepMap(len(rates)*len(mks)*len(sizes), func(i int) float64 {
		rate := rates[i/(len(mks)*len(sizes))]
		mk := mks[i/len(sizes)%len(mks)]
		size := sizes[i%len(sizes)]
		res := nbiaCase{hetero: true, nodes: 2, tiles: tiles, rate: rate,
			pol: mk(size), useGPU: true, cpuWorkers: -1, seed: cfg.Seed}.run()
		return float64(res.Makespan)
	})
	for ri, rate := range rates {
		for pi, out := range []*metrics.Series{&fcfsBest, &wrrBest} {
			var xs, ys []float64
			for si, size := range sizes {
				xs = append(xs, float64(size))
				ys = append(ys, makespans[(ri*len(mks)+pi)*len(sizes)+si])
			}
			out.Add(rate*100, metrics.ArgBest(xs, ys, true))
		}
	}
	body := metrics.RenderSeries(
		fmt.Sprintf("Exhaustively-searched best static request size, heterogeneous base case, %d tiles", tiles),
		[]metrics.Series{fcfsBest, wrrBest})

	// Compare the average best sizes: DDWRR needs deep queues so its
	// intra-filter sorting has events to choose from; DDFCFS prefers
	// shallow queues to limit the imbalance of its blind assignment.
	avg := func(s metrics.Series) float64 {
		var t float64
		for _, v := range s.Y {
			t += v
		}
		return t / float64(len(s.Y))
	}
	return &Report{
		ID: "fig11", Title: "Best static streamRequestsSize", PaperRef: "Figure 11",
		Expectation: "DDWRR performs best with a large number of requested buffers (it " +
			"needs a populated queue to create intra-filter scheduling opportunities); " +
			"DDFCFS prefers a small streamRequestsSize (less load imbalance); for both, " +
			"the programmer must find this value by hand — ODDS adapts it automatically.",
		Body:   body,
		Series: []metrics.Series{fcfsBest, wrrBest},
		Checks: []Check{
			check("DDWRR's best request size exceeds DDFCFS's on average",
				avg(wrrBest) > avg(fcfsBest),
				"avg DDWRR %.1f vs avg DDFCFS %.1f", avg(wrrBest), avg(fcfsBest)),
		},
	}
}

func runFig12(cfg Config) *Report {
	tiles := baseTiles(cfg)
	res := nbiaCase{hetero: true, nodes: 2, tiles: tiles, rate: 0.10,
		pol: policy.ODDS(), useGPU: true, cpuWorkers: -1,
		records: true, targets: true, intervals: true, seed: cfg.Seed}.run()

	const buckets = 10
	// (a) CPU utilization of the CPU-only node's cores.
	var cpuOnlyCores []*hw.Device
	for _, n := range res.Cluster.Nodes {
		if !n.HasGPU() {
			cpuOnlyCores = append(cpuOnlyCores, n.CPUs...)
		}
	}
	util := metrics.MergedUtilization(cpuOnlyCores, res.Makespan, buckets)
	utilS := metrics.Series{Label: "CPU-only node utilization", XLabel: "run fraction %"}
	for i, u := range util {
		utilS.Add(float64((i+1)*100/buckets), u)
	}

	// (b) Mean streamRequestsSize of the CPU-only node's workers over time.
	tgtSum := make([]float64, buckets)
	tgtN := make([]int, buckets)
	for _, tr := range res.Targets {
		if tr.Instance != 1 { // instance 1 is the CPU-only node
			continue
		}
		b := int(float64(tr.At) / float64(res.Makespan) * buckets)
		if b >= buckets {
			b = buckets - 1
		}
		tgtSum[b] += float64(tr.Target)
		tgtN[b]++
	}
	tgtS := metrics.Series{Label: "mean streamRequestsSize (CPU-only node)", XLabel: "run fraction %"}
	last := 2.0
	for i := 0; i < buckets; i++ {
		v := last
		if tgtN[i] > 0 {
			v = tgtSum[i] / float64(tgtN[i])
			last = v
		}
		tgtS.Add(float64((i+1)*100/buckets), v)
	}
	body := metrics.RenderSeries("ODDS heterogeneous base case, 10% recalculation",
		[]metrics.Series{utilS, tgtS})

	// Utilization high through the bulk of the run.
	busyOK := true
	for i := 0; i < buckets-1; i++ {
		if util[i] < 0.75 {
			busyOK = false
		}
	}
	peak, tail := 0.0, tgtS.Y[buckets-1]
	for _, v := range tgtS.Y {
		if v > peak {
			peak = v
		}
	}
	return &Report{
		ID: "fig12", Title: "ODDS execution detail", PaperRef: "Figure 12",
		Expectation: "ODDS keeps processors utilized through the whole execution " +
			"(Fig. 12a), and DQAA shrinks the CPU-only machine's streamRequestsSize at " +
			"the tail, when the queue fills with slow high-resolution buffers, reducing " +
			"end-of-run load imbalance (Fig. 12b).",
		Body:   body,
		Series: []metrics.Series{utilS, tgtS},
		Checks: []Check{
			check("CPU-only node >= 75% utilized until the tail", busyOK,
				"per-bucket utilization %v", fmtFloats(util)),
			check("streamRequestsSize adapts during the run and ends below its peak",
				len(res.Targets) > 0 && tail < peak,
				"peak %.1f, tail %.1f over %d target changes", peak, tail, len(res.Targets)),
		},
	}
}

func fmtFloats(v []float64) string {
	out := "["
	for i, x := range v {
		if i > 0 {
			out += " "
		}
		out += fmt.Sprintf("%.2f", x)
	}
	return out + "]"
}
