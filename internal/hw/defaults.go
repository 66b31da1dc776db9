package hw

import "repro/internal/sim"

// Default hardware parameters, loosely calibrated to the paper's testbed
// (2.13 GHz Core 2 Duo, GeForce 8800GT over PCIe 1.x, switched gigabit
// Ethernet). Absolute values matter less than the ratios the scheduling
// policies react to; see DESIGN.md ("Calibration constants").
var (
	// DefaultLink approximates PCIe 1.x with a mid-2000s driver stack:
	// ~1.5 GB/s sustained, ~15 us per-transfer setup, and ~3% wire-time
	// management overhead per additional in-flight copy.
	DefaultLink = LinkConfig{
		BandwidthBps: 1.5e9,
		Latency:      15 * sim.Microsecond,
		Congestion:   0.03,
	}

	// DefaultNetwork approximates switched gigabit Ethernet with TCP in
	// the path (~117 MB/s goodput, 100 us one-way latency) and an on-node
	// IPC path of ~25 us plus a 2 GB/s copy.
	DefaultNetwork = NetworkConfig{
		BandwidthBps:      117e6,
		Latency:           100 * sim.Microsecond,
		LocalLatency:      25 * sim.Microsecond,
		LocalBandwidthBps: 2e9,
	}
)

// PaperNode returns the spec of the paper's standard machine: one Core 2
// Duo (2 cores) plus one GeForce 8800GT.
func PaperNode() NodeSpec { return NodeSpec{CPUCores: 2, HasGPU: true} }

// CPUOnlyNode returns the spec of the GPU-less machine used in the
// heterogeneous experiments: a dual-core CPU-only box.
func CPUOnlyNode() NodeSpec { return NodeSpec{CPUCores: 2, HasGPU: false} }

// HomogeneousCluster builds n identical CPU+GPU nodes.
func HomogeneousCluster(k *sim.Kernel, n int) *Cluster {
	specs := make([]NodeSpec, n)
	for i := range specs {
		specs[i] = PaperNode()
	}
	return NewCluster(k, specs, nil)
}
