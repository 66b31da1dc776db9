package main

import (
	"fmt"

	"repro/internal/apps/nbia"
	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/xfer"
)

// The NBIA workloads run the paper's image-analysis application on the
// 14-node heterogeneous cluster of Fig. 14 (7 CPU+GPU nodes, 7 dual-core
// CPU-only nodes) with 8% recalculation, async copies and estimator
// weights, exactly as internal/experiments runs its fig14 points. The seed
// drives the simulation kernel and the noise of the estimator's training
// profile; the tiles are the same on every seed, so any seed must complete
// exactly nbia.ExpectedLineages(tiles, levels, rate, 0) lineages.
const (
	nbiaNodes  = 14
	nbiaRecalc = 0.08
	// nbiaSeedOffset derives nbia.Config.Seed (profile noise) from the
	// workload seed, as internal/experiments does.
	nbiaSeedOffset = 17
)

func odds() policy.StreamPolicy  { return policy.ODDS() }
func ddwrr() policy.StreamPolicy { return policy.DDWRR(32) }

// pinnedMakespan is each NBIA workload's makespan for seed 1 at full scale,
// in virtual seconds, exactly as the simulator computes it.
var pinnedMakespan = map[string]sim.Time{
	"nbia_odds":  3.4400786108833046,
	"nbia_ddwrr": 0.5860649554140005,
}

type nbiaWorkload struct {
	policy func() policy.StreamPolicy
	tiles  int
	pinned sim.Time
	// last is the latest untraced result, which the traced execution must
	// reproduce exactly.
	last     *nbia.Result
	expected map[int]int64 // lineage count by tile count
}

func (w *nbiaWorkload) tilesAt(scale float64) int { return max(1, int(float64(w.tiles)*scale)) }

func (w *nbiaWorkload) config(seed int64, tiles int) nbia.Config {
	return nbia.Config{
		Cluster:    nbia.HeteroCluster(sim.NewKernel(seed), nbiaNodes),
		Tiles:      tiles,
		RecalcRate: nbiaRecalc,
		Policy:     w.policy(),
		UseGPU:     true,
		CPUWorkers: -1,
		AsyncCopy:  true,
		Weights:    nbia.WeightEstimator,
		Seed:       seed + nbiaSeedOffset,
	}
}

// execute times one nbia.Run and checks its output.
func (w *nbiaWorkload) execute(b *bench, cfg nbia.Config) (*nbia.Result, sample, error) {
	var res *nbia.Result
	sp := b.tr.begin("nbia.Run")
	s, err := measure(func() (err error) {
		res, err = nbia.Run(cfg)
		return err
	})
	b.tr.end(sp)
	if err != nil {
		return nil, sample{}, fmt.Errorf("nbia.Run: %w", err)
	}
	return res, s, w.check(b, cfg.Tiles, res)
}

// check requires every tile lineage to complete, and on seed 1 at full
// scale the pinned makespan.
func (w *nbiaWorkload) check(b *bench, tiles int, res *nbia.Result) error {
	if w.expected == nil {
		w.expected = map[int]int64{}
	}
	want, ok := w.expected[tiles]
	if !ok {
		want = nbia.ExpectedLineages(tiles, nbia.DefaultLevels, nbiaRecalc, 0)
		w.expected[tiles] = want
	}
	if res.Completed != want {
		return fmt.Errorf("%d tiles: %d lineages completed, want %d", tiles, res.Completed, want)
	}
	if b.seed == 1 && b.scale == 1 && tiles == w.tiles && res.Makespan != w.pinned {
		return fmt.Errorf("seed 1: makespan %v, pinned %v", res.Makespan, w.pinned)
	}
	return nil
}

func (w *nbiaWorkload) setup(b *bench) error {
	_, _, err := w.execute(b, w.config(b.seed, w.tilesAt(b.scale*warmupScale)))
	return err
}

func (w *nbiaWorkload) iterate(b *bench) (sample, error) {
	res, s, err := w.execute(b, w.config(b.seed, w.tilesAt(b.scale)))
	if res != nil {
		w.last = res
	}
	return s, err
}

func (w *nbiaWorkload) layers(b *bench, untraced float64, m map[string]float64) {
	tiles := w.tilesAt(b.scale)

	// The traced execution: a counting subscriber on the hook bus.
	var hc hookCounts
	cfg := w.config(b.seed, tiles)
	cfg.Hooks = hc.attach
	stop := sampleHeap()
	res, s, err := w.execute(b, cfg)
	m["go.heap_peak_mb"] = stop()
	if err == nil && w.last != nil && (res.Makespan != w.last.Makespan || res.Completed != w.last.Completed) {
		err = fmt.Errorf("traced execution moved the simulation: makespan %v, untraced %v", res.Makespan, w.last.Makespan)
	}
	b.op(err)
	if res != nil {
		events := float64(hc.events())
		m["trace.overhead_s"] = s.wall - untraced
		m["sim.host_ns_per_hook_event"] = ratio(untraced*1e9, events)
		m["core.demand_issued"] = float64(hc.demand[core.DemandIssued])
		m["core.demand_empty"] = float64(hc.demand[core.DemandEmpty])
		m["core.demand_useful_ratio"] = ratio(float64(hc.demand[core.DemandData]), float64(hc.demand[core.DemandIssued]))
		m["core.sends"] = float64(hc.sends)
		m["core.queue_depth_events"] = float64(hc.depth)
		m["policy.dqaa_target_changes"] = float64(hc.targets)
		m["xfer.h2d_spans"] = float64(hc.spans[xfer.SpanH2D])
		m["xfer.kernel_spans"] = float64(hc.spans[xfer.SpanKernel])
		m["xfer.d2h_spans"] = float64(hc.spans[xfer.SpanD2H])
		m["core.buffers_cpu"] = float64(hc.process[0])
		m["core.buffers_gpu"] = float64(hc.process[1])
		nbiaGuards(res, m)
	}

	// The -explain capture: span collector and obs registry attached.
	cfg = w.config(b.seed, tiles)
	var col *span.Collector
	var reg *obs.Registry
	cfg.Hooks = func(rt *core.Runtime) {
		col, reg = span.NewCollector(), obs.NewRegistry()
		col.Attach(rt)
		reg.Attach(rt)
	}
	sp := b.tr.begin("capture")
	c, err := measure(func() error {
		res, err := nbia.Run(cfg)
		if err != nil {
			return err
		}
		reg.Finish(res.Makespan)
		_, err = col.Build(res.Makespan)
		return err
	})
	b.tr.end(sp)
	b.op(err)
	if err == nil {
		m["obs.capture_overhead_s"] = c.wall - untraced
	}

	seed := b.seed + nbiaSeedOffset + 1
	m["estimator.build_ms"] = medianOf(21, func() {
		sink += estimator.New(nbia.BuildProfile(nbia.DefaultLevels, 30, seed), 2).Speedup(hw.CPU, []float64{32}, nil)
	}) * 1e3
}

// nbiaGuards records the simulated outcome of a run: what a speed-only
// change must leave identical.
func nbiaGuards(res *nbia.Result, m map[string]float64) {
	var cpuBusy, gpuBusy, pcieBusy float64
	var cpus, gpus int
	for _, n := range res.Cluster.Nodes {
		for _, d := range n.CPUs {
			cpuBusy += float64(d.Busy())
			cpus++
		}
		if n.GPU != nil {
			gpuBusy += float64(n.GPU.Busy())
			pcieBusy += float64(n.Link.Busy())
			gpus++
		}
	}
	makespan := float64(res.Makespan)
	m["sim.virtual_s"] = makespan
	m["hw.cpu_busy_frac"] = ratio(cpuBusy, float64(cpus)*makespan)
	m["hw.gpu_busy_frac"] = ratio(gpuBusy, float64(gpus)*makespan)
	m["hw.pcie_busy_frac"] = ratio(pcieBusy, float64(gpus)*makespan)
	m["hw.net_bytes"] = float64(res.Cluster.Net.TotalBytes())
}
