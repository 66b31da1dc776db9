package nbia

import (
	"fmt"
	"math/rand"

	"repro/internal/core"
	"repro/internal/estimator"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// TileRef is the payload of an NBIA task: which tile at which resolution
// level.
type TileRef struct {
	ID    uint64
	Level int
}

// WeightMode selects where DDWRR/ODDS scheduling weights come from.
type WeightMode int

const (
	// WeightEstimator uses the kNN performance estimator of Section 4
	// trained on a 30-job profile — the paper's configuration.
	WeightEstimator WeightMode = iota
	// WeightOracle uses exact speedups from the cost model (an ablation
	// upper bound).
	WeightOracle
	// WeightUniform disables weight information entirely.
	WeightUniform
)

// DefaultLevels is the two-level pyramid of Sections 6.3-6.4.
var DefaultLevels = []int{32, 512}

// Config describes one NBIA run.
type Config struct {
	// Cluster to run on (use HomoCluster/HeteroCluster or hw directly).
	Cluster *hw.Cluster
	// Tiles is the number of image tiles (the paper uses 26,742 for the
	// base cases and 267,420 for scaling).
	Tiles int
	// Levels are the pyramid tile edge sizes, lowest resolution first.
	Levels []int
	// RecalcRate is the fraction of tiles whose classification is
	// rejected at each non-final level.
	RecalcRate float64
	// Policy is the stream policy feeding the processing filter.
	Policy policy.StreamPolicy
	// UseGPU enables GPU workers on GPU-equipped nodes (one CPU core per
	// GPU becomes its manager).
	UseGPU bool
	// CPUWorkers per node: 0 = none (GPU-only), -1 = all available cores.
	CPUWorkers int
	// AsyncCopy enables the Section 5.1 transfer pipeline.
	AsyncCopy bool
	// MaxConcurrentCopies bounds Algorithm 1 (<= 0: default).
	MaxConcurrentCopies int
	// Readers are the node IDs hosting reader (source) instances;
	// default: every node that hosts a worker.
	Readers []int
	// Workers are the node IDs hosting processing instances; default all.
	Workers []int
	// Weights selects the weight source for sorted queues.
	Weights WeightMode
	// EstimatorK is the kNN parameter (default 2, as in the paper).
	EstimatorK int
	// ProfileJobs is the size of the phase-one benchmark workload
	// (default 30, as in Section 4).
	ProfileJobs int
	// Seed drives all randomness (profile noise etc.).
	Seed int64
	// IDOffset shifts tile IDs, selecting a different region of the
	// synthetic slide: the per-tile content factors and recalculation
	// pattern change while the workload's statistics stay the same. Used
	// by the run-to-run variance study.
	IDOffset uint64
	// Unfused splits the processing filter into the original two GPU
	// filters (color conversion, then feature extraction + classification)
	// connected by a stream carrying La*b* tiles. The paper fused them
	// "to avoid extra overhead due to unnecessary GPU/CPU data transfers
	// and network communication"; this flag quantifies that choice.
	Unfused bool
	// RecordProcs collects a ProcRecord per processed tile.
	RecordProcs bool
	// RecordTargets collects DQAA target changes.
	RecordTargets bool
	// GPUWorkers is the number of concurrent GPU worker threads per
	// instance (default 1; see core.FilterSpec.GPUWorkers).
	GPUWorkers int
	// Tunables overrides runtime mechanisms for ablation studies.
	Tunables *core.Tunables
	// Faults is an optional fault schedule injected into the run (chaos
	// experiments); nil or empty changes nothing.
	Faults *fault.Schedule
	// Hooks, when set, is called with the runtime after the filter graph
	// is wired and before the run starts — the place to attach hook-bus
	// subscribers (obs.Registry, trace.ChromeLog). Nil changes nothing.
	Hooks func(rt *core.Runtime)
}

// Result of an NBIA run.
type Result struct {
	// Makespan is the virtual time to classify every tile.
	Makespan sim.Time
	// Completed counts processed task lineages (initial + recalculated).
	Completed int64
	// CPUOnly is the analytic single-CPU-core reference time for the same
	// workload, the baseline all the paper's speedups use.
	CPUOnly sim.Time
	// Speedup = CPUOnly / Makespan.
	Speedup float64
	// Records and Targets are collected when requested in the config.
	Records []core.ProcRecord
	Targets []core.TargetRecord
	// Cluster exposes the hardware for utilization analysis.
	Cluster *hw.Cluster
}

// HomoCluster builds n CPU+GPU nodes with the NBIA PCIe link parameters.
func HomoCluster(k *sim.Kernel, n int) *hw.Cluster {
	specs := make([]hw.NodeSpec, n)
	for i := range specs {
		lc := PaperLink
		specs[i] = hw.NodeSpec{CPUCores: 2, HasGPU: true, Link: &lc}
	}
	return hw.NewCluster(k, specs, nil)
}

// HeteroCluster builds n nodes, the first ceil(n/2) with GPUs and the rest
// dual-core CPU-only, as in Section 6.4.3.
func HeteroCluster(k *sim.Kernel, n int) *hw.Cluster {
	specs := make([]hw.NodeSpec, n)
	for i := range specs {
		if i < (n+1)/2 {
			lc := PaperLink
			specs[i] = hw.NodeSpec{CPUCores: 2, HasGPU: true, Link: &lc}
		} else {
			specs[i] = hw.NodeSpec{CPUCores: 2, HasGPU: false}
		}
	}
	return hw.NewCluster(k, specs, nil)
}

// CPUOnlyTime computes the single-core reference time analytically: the
// exact sum of CPU costs of every tile at every level it reaches.
func CPUOnlyTime(tiles int, levels []int, rate float64) sim.Time {
	return CPUOnlyTimeOffset(tiles, levels, rate, 0)
}

// CPUOnlyTimeOffset is CPUOnlyTime for a tile-ID-shifted workload.
func CPUOnlyTimeOffset(tiles int, levels []int, rate float64, offset uint64) sim.Time {
	var total sim.Time
	for id := 0; id < tiles; id++ {
		for lv := 0; lv < len(levels); lv++ {
			total += CPUTime(uint64(id)+offset, levels[lv], lv)
			if lv == len(levels)-1 || !recalcNeeded(uint64(id)+offset, lv, rate) {
				break
			}
		}
	}
	return total
}

// ExpectedLineages counts the task lineages a fused-pipeline run creates:
// one per tile per pyramid level the tile reaches. With RecordProcs on, a
// run is work-conserving iff it produces exactly this many process records,
// each (tile, level) pair appearing exactly once — crashes may move tiles
// between instances but must never lose or duplicate one.
func ExpectedLineages(tiles int, levels []int, rate float64, offset uint64) int64 {
	var total int64
	for id := 0; id < tiles; id++ {
		for lv := 0; lv < len(levels); lv++ {
			total++
			if lv == len(levels)-1 || !recalcNeeded(uint64(id)+offset, lv, rate) {
				break
			}
		}
	}
	return total
}

// BuildProfile runs the phase-one benchmark of Section 4 for the NBIA
// component: jobs tiles of sizes spanning the pyramid are "measured" on
// both devices (cost model plus multiplicative measurement noise).
func BuildProfile(levels []int, jobs int, seed int64) *estimator.Profile {
	rng := rand.New(rand.NewSource(seed))
	p := estimator.NewProfile()
	sizes := profileSizes(levels)
	for j := 0; j < jobs; j++ {
		edge := sizes[j%len(sizes)]
		id := rng.Uint64()
		noise := 1 + 0.05*(2*rng.Float64()-1) // +-5% measurement jitter
		var s estimator.Sample
		s.Params = []float64{float64(edge)}
		s.Times[hw.CPU] = float64(CPUTime(id, edge, 0)) * noise
		s.Times[hw.GPU] = float64(GPUTotalTime(id, edge, 0)) * noise
		p.Add(s)
	}
	return p
}

// profileSizes spans the pyramid levels plus intermediate sizes, so the
// estimator has representative neighbors for any tile size.
func profileSizes(levels []int) []int {
	set := map[int]bool{}
	var out []int
	add := func(e int) {
		if e > 0 && !set[e] {
			set[e] = true
			out = append(out, e)
		}
	}
	for _, e := range levels {
		add(e)
	}
	for e := 32; e <= 512; e *= 2 {
		add(e)
	}
	return out
}

func (cfg *Config) defaults() {
	if cfg.Tiles <= 0 {
		cfg.Tiles = 1000
	}
	if len(cfg.Levels) == 0 {
		cfg.Levels = DefaultLevels
	}
	if cfg.EstimatorK <= 0 {
		cfg.EstimatorK = 2
	}
	if cfg.ProfileJobs <= 0 {
		cfg.ProfileJobs = 30
	}
	if cfg.MaxConcurrentCopies <= 0 {
		// Algorithm 1 is bounded by GPU memory: ~16 in-flight 512x512
		// tiles plus kernel workspace fit a 512 MB 8800GT.
		cfg.MaxConcurrentCopies = 16
	}
	if len(cfg.Workers) == 0 {
		for i := range cfg.Cluster.Nodes {
			cfg.Workers = append(cfg.Workers, i)
		}
	}
	if len(cfg.Readers) == 0 {
		cfg.Readers = append([]int(nil), cfg.Workers...)
	}
}

// makeColorTask builds the color-conversion stage task (unfused pipeline).
func (cfg *Config) makeColorTask(id uint64, level int) *task.Task {
	edge := cfg.Levels[level]
	t := &task.Task{
		Params:  []float64{float64(edge)},
		Size:    TileBytes(edge),
		OutSize: LabBytes(edge),
		Payload: TileRef{ID: id, Level: level},
		Cost: func(kind hw.Kind) sim.Time {
			if kind == hw.GPU {
				return ColorGPUTime(id, edge, level)
			}
			return ColorCPUTime(id, edge, level)
		},
	}
	cfg.applyWeights(t, id, edge, level)
	return t
}

// makeFeatureTask builds the feature/classify stage task (unfused pipeline).
func (cfg *Config) makeFeatureTask(id uint64, level int) *task.Task {
	edge := cfg.Levels[level]
	t := &task.Task{
		Params:  []float64{float64(edge)},
		Size:    LabBytes(edge),
		OutSize: featureBytes,
		Payload: TileRef{ID: id, Level: level},
		Cost: func(kind hw.Kind) sim.Time {
			if kind == hw.GPU {
				return FeatureGPUTime(id, edge, level)
			}
			return FeatureCPUTime(id, edge, level)
		},
	}
	cfg.applyWeights(t, id, edge, level)
	return t
}

// applyWeights sets the scheduling weights according to the weight mode.
func (cfg *Config) applyWeights(t *task.Task, id uint64, edge, level int) {
	if cfg.Weights == WeightOracle {
		t.Weight[hw.CPU] = 1
		t.Weight[hw.GPU] = OracleSpeedup(id, edge, level)
		t.ComputeKeys()
	} else if cfg.Weights == WeightUniform {
		t.SetUniformWeight()
	}
}

// makeTask builds the runtime task for one tile at one level.
func (cfg *Config) makeTask(id uint64, level int) *task.Task {
	edge := cfg.Levels[level]
	t := &task.Task{
		Params:  []float64{float64(edge)},
		Size:    TileBytes(edge),
		OutSize: featureBytes,
		Payload: TileRef{ID: id, Level: level},
		Cost: func(kind hw.Kind) sim.Time {
			if kind == hw.GPU {
				return GPUKernelTime(id, edge, level)
			}
			return CPUTime(id, edge, level)
		},
	}
	cfg.applyWeights(t, id, edge, level)
	return t
}

// Run executes the NBIA filter graph on the configured cluster and returns
// the measured result.
func Run(cfg Config) (*Result, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("nbia: config needs a cluster")
	}
	cfg.defaults()

	var est *estimator.Estimator
	if cfg.Weights == WeightEstimator {
		est = estimator.New(BuildProfile(cfg.Levels, cfg.ProfileJobs, cfg.Seed+1), cfg.EstimatorK)
	}
	rt := core.New(cfg.Cluster, est)
	if cfg.Tunables != nil {
		rt.Tun = *cfg.Tunables
	}

	res := &Result{Cluster: cfg.Cluster}

	// Tiles are partitioned round-robin across reader instances, matching
	// Anthill's transparent-copy data distribution. Readers are lazy
	// (demand-driven disk reads), so fresh low-resolution tiles and
	// resubmitted high-resolution tiles interleave in the send queues.
	nr := len(cfg.Readers)
	firstTask := cfg.makeTask
	if cfg.Unfused {
		firstTask = cfg.makeColorTask
	}
	readers := rt.AddFilter(core.FilterSpec{
		Name:      "reader",
		Placement: cfg.Readers,
		SourceCount: func(instance int) int {
			return (cfg.Tiles - instance + nr - 1) / nr
		},
		SourceMake: func(instance, k int) *task.Task {
			return firstTask(uint64(instance+k*nr)+cfg.IDOffset, 0)
		},
	})
	workerSpec := core.FilterSpec{
		Placement:           cfg.Workers,
		UseGPU:              cfg.UseGPU,
		GPUWorkers:          cfg.GPUWorkers,
		CPUWorkers:          cfg.CPUWorkers,
		AsyncCopy:           cfg.AsyncCopy,
		MaxConcurrentCopies: cfg.MaxConcurrentCopies,
	}
	classify := func(ref TileRef) core.Action {
		if ref.Level+1 < len(cfg.Levels) && recalcNeeded(ref.ID, ref.Level, cfg.RecalcRate) {
			return core.Action{Resubmit: []*task.Task{firstTask(ref.ID, ref.Level+1)}}
		}
		return core.Action{}
	}
	if cfg.Unfused {
		// The original two GPU filters, connected by a La*b* tile stream:
		// recalculated tiles resubmit to the reader (the chain's root) and
		// re-traverse color conversion at the higher resolution.
		colorSpec := workerSpec
		colorSpec.Name = "colorconv"
		colorSpec.Handler = func(ctx *core.Ctx, t *task.Task) core.Action {
			ref := t.Payload.(TileRef)
			return core.Action{Forward: []*task.Task{cfg.makeFeatureTask(ref.ID, ref.Level)}}
		}
		color := rt.AddFilter(colorSpec)
		featSpec := workerSpec
		featSpec.Name = "features"
		featSpec.Handler = func(ctx *core.Ctx, t *task.Task) core.Action {
			return classify(t.Payload.(TileRef))
		}
		features := rt.AddFilter(featSpec)
		rt.Connect(readers, color, cfg.Policy)
		rt.Connect(color, features, cfg.Policy)
	} else {
		workerSpec.Name = "nbia"
		workerSpec.Handler = func(ctx *core.Ctx, t *task.Task) core.Action {
			return classify(t.Payload.(TileRef))
		}
		worker := rt.AddFilter(workerSpec)
		rt.Connect(readers, worker, cfg.Policy)
	}

	if cfg.Hooks != nil {
		cfg.Hooks(rt)
	}
	// The record subscribers chain in front of cfg.Hooks' subscribers.
	if cfg.RecordProcs {
		core.Subscribe(&rt.Hooks.Process, func(r core.ProcRecord) {
			res.Records = append(res.Records, r)
		})
	}
	if cfg.RecordTargets {
		core.Subscribe(&rt.Hooks.Target, func(r core.TargetRecord) {
			res.Targets = append(res.Targets, r)
		})
	}
	if cfg.Faults != nil {
		if err := fault.Apply(rt, cfg.Faults); err != nil {
			return nil, fmt.Errorf("nbia: %w", err)
		}
	}

	run, err := rt.Run()
	if err != nil {
		return nil, err
	}
	res.Makespan = run.Makespan
	res.Completed = run.Completed
	res.CPUOnly = CPUOnlyTimeOffset(cfg.Tiles, cfg.Levels, cfg.RecalcRate, cfg.IDOffset)
	if run.Makespan > 0 {
		res.Speedup = float64(res.CPUOnly) / float64(run.Makespan)
	}
	return res, nil
}
