// Package vi implements the paper's vector incrementer micro-application
// (Section 6.2): a large integer vector is split into chunks that are
// copied to the GPU, incremented (iterating six times over each value, for
// a compute-to-communication ratio of about 7:3), and copied back. It is
// the workload behind Figure 7 (execution time vs number of CUDA streams)
// and Table 2 (best static stream count vs the dynamic controller).
package vi

import (
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/xfer"
)

// Iterations is the number of passes over each value (from the paper).
const Iterations = 6

// Increment is the actual kernel: iters in-place passes over v. It exists
// so the examples exercise real work; the cluster-scale experiments use the
// calibrated cost model below for the same operation.
func Increment(v []int32, iters int) {
	for it := 0; it < iters; it++ {
		for i := range v {
			v[i]++
		}
	}
}

// Cost-model constants. Calibrated so a 360M-integer vector runs in the
// paper's ballpark (~16 s) with a 7:3 compute-to-communication ratio:
// compute 36 ns per integer per chunk (6 iterations), PCIe effective
// 600 MB/s per direction with 60 us per-transfer setup.
const (
	gpuPerInt = 36e-9 * sim.Second
)

// PaperLink is the PCIe model for the VI experiments. The per-transfer
// latency is what deep stream pipelines amortize; the congestion term is
// what eventually makes too many concurrent streams counterproductive —
// together they produce Figure 7's unimodal curves with a size-dependent
// optimum.
var PaperLink = hw.LinkConfig{
	BandwidthBps: 600e6,
	Latency:      60 * sim.Microsecond,
	Congestion:   0.03,
}

// Config describes one VI run.
type Config struct {
	// VectorInts is the total vector length (paper: 360M).
	VectorInts int64
	// ChunkInts is the chunk size in integers (paper: 100K, 500K, 1M).
	ChunkInts int64
	// Streams is the fixed number of concurrent events/CUDA streams; 0
	// selects the dynamic controller (Algorithm 1).
	Streams int
	// MaxStreams bounds the dynamic controller (<= 0: 256).
	MaxStreams int
	// Sync disables the asynchronous copy pipeline entirely.
	Sync bool
}

// Result of a VI run.
type Result struct {
	// Elapsed is the virtual execution time.
	Elapsed sim.Time
	// Chunks is the number of chunks processed.
	Chunks int
	// FinalStreams is the stream count at the end (interesting for the
	// dynamic controller).
	FinalStreams int
}

// ChunkTask builds the transfer/compute description of one chunk of the
// incrementer vector (exported for the fig7 observability capture, which
// replays the VI workload on the core runtime).
func ChunkTask(ints int64) *task.Task {
	t := &task.Task{Size: 4 * ints, OutSize: 4 * ints, Cost: chunkCost}
	t.SetUniformWeight()
	return t
}

// chunkCost prices a chunk task from its size, 4 bytes per int.
func chunkCost(t *task.Task, k hw.Kind) sim.Time {
	ints := t.Size / 4
	if k == hw.GPU {
		return gpuPerInt * sim.Time(ints)
	}
	// The CPU has no SIMD accelerator here; ~8x slower.
	return 8 * gpuPerInt * sim.Time(ints)
}

// Run executes the vector incrementer on a single simulated GPU.
func Run(cfg Config) Result {
	if cfg.VectorInts <= 0 || cfg.ChunkInts <= 0 {
		panic("vi: vector and chunk sizes must be positive")
	}
	k := sim.NewKernel(1)
	lc := PaperLink
	cl := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2, HasGPU: true, Link: &lc}}, nil)
	node := cl.Nodes[0]
	exec := xfer.NewExecutor(node.GPU, node.Link, !cfg.Sync)

	nChunks := int((cfg.VectorInts + cfg.ChunkInts - 1) / cfg.ChunkInts)
	var ctrl *xfer.Controller
	if cfg.Streams <= 0 {
		ctrl = xfer.NewController(cfg.MaxStreams)
	}

	res := Result{Chunks: nChunks}
	k.Spawn("vi", func(e *sim.Env) {
		remaining := nChunks
		for remaining > 0 {
			n := cfg.Streams
			if ctrl != nil {
				n = ctrl.Concurrent()
			}
			if cfg.Sync {
				n = 1
			}
			if n > remaining {
				n = remaining
			}
			batch := make([]*task.Task, n)
			for i := range batch {
				ints := cfg.ChunkInts
				if remaining == 1 && cfg.VectorInts%cfg.ChunkInts != 0 {
					ints = cfg.VectorInts % cfg.ChunkInts
				}
				batch[i] = ChunkTask(ints)
				remaining--
			}
			dur := exec.RunBatch(e, batch)
			if ctrl != nil && dur > 0 {
				ctrl.Observe(float64(n) / float64(dur))
			}
		}
		res.Elapsed = e.Now()
		if ctrl != nil {
			res.FinalStreams = ctrl.Concurrent()
		} else {
			res.FinalStreams = cfg.Streams
		}
	})
	if err := k.Run(); err != nil {
		panic(err)
	}
	return res
}

// BestStatic sweeps static stream counts and returns the best count and its
// execution time — the exhaustive search the paper compares Algorithm 1
// against in Table 2.
func BestStatic(cfg Config, counts []int) (int, sim.Time) {
	bestN, bestT := 0, sim.Time(0)
	for _, n := range counts {
		c := cfg
		c.Streams = n
		r := Run(c)
		if bestN == 0 || r.Elapsed < bestT {
			bestN, bestT = n, r.Elapsed
		}
	}
	return bestN, bestT
}
