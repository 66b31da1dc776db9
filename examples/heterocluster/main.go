// Heterocluster: the paper's headline result in miniature.
//
// Runs the NBIA application on a 4-node cluster where half the machines
// have no GPU, under the three demand-driven stream policies of Table 5,
// and shows why run-time coordination matters: DDFCFS leaves the CPUs
// nearly useless, DDWRR fixes the intra-node assignment, and ODDS also
// fixes the inter-node assignment by selecting buffers at the sender.
//
// Run with:
//
//	go run ./examples/heterocluster
package main

import (
	"fmt"

	"repro/internal/apps/nbia"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
)

func main() {
	const tiles = 8000
	const rate = 0.08

	fmt.Printf("NBIA on 4 heterogeneous nodes (2 CPU+GPU, 2 CPU-only), %d tiles, %.0f%% recalculation\n\n",
		tiles, rate*100)
	fmt.Printf("%-8s %12s %10s %26s\n", "policy", "makespan", "speedup", "high-res tiles on GPUs")
	// The static policies use hand-tuned request sizes for this cluster
	// and workload (cf. Figure 11's exhaustive search); ODDS tunes itself.
	for _, p := range []policy.StreamPolicy{
		policy.DDFCFS(4),
		policy.DDWRR(4),
		policy.ODDS(),
	} {
		k := sim.NewKernel(7)
		cluster := nbia.HeteroCluster(k, 4)
		res, err := nbia.Run(nbia.Config{
			Cluster:     cluster,
			Tiles:       tiles,
			RecalcRate:  rate,
			Policy:      p,
			UseGPU:      true,
			CPUWorkers:  -1,
			AsyncCopy:   true,
			Weights:     nbia.WeightEstimator,
			Seed:        7,
			RecordProcs: true,
		})
		if err != nil {
			panic(err)
		}
		var gpuHigh, allHigh int
		for _, r := range res.Records {
			if r.Payload.(*nbia.TileRef).Level == 1 {
				allHigh++
				if r.Kind == hw.GPU {
					gpuHigh++
				}
			}
		}
		fmt.Printf("%-8s %10.2f s %9.1fx %18d / %d (%.1f%%)\n",
			p.Name, float64(res.Makespan), res.Speedup,
			gpuHigh, allHigh, 100*float64(gpuHigh)/float64(allHigh))
	}
	fmt.Println("\nThe speedups are relative to a single CPU core running the same workload.")
}
