// Benchmarks regenerating every table and figure of the paper's evaluation.
// One benchmark per artifact; each reports the artifact's headline metric
// alongside ns/op so `go test -bench=. -benchmem` doubles as the
// reproduction harness:
//
//	go test -bench=. -benchmem
//
// Benchmarks run the reduced-scale workloads by default (the shapes are
// identical); set -anthill-full for paper-scale runs.
package repro_test

import (
	"flag"
	"io"
	"testing"

	"repro/internal/apps/microbench"
	"repro/internal/apps/vi"
	"repro/internal/experiments"
	"repro/internal/parallel"
)

var fullScale = flag.Bool("anthill-full", false, "run benchmarks at paper scale")

func cfg() experiments.Config {
	return experiments.Config{Full: *fullScale, Seed: 1}
}

// benchExperiment runs one registered experiment per iteration and fails
// the benchmark if any qualitative shape check fails.
func benchExperiment(b *testing.B, id string) {
	e, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep := e.Run(cfg())
		for _, c := range rep.Checks {
			if !c.Pass {
				b.Fatalf("%s: shape check failed: %s — %s", id, c.Name, c.Detail)
			}
		}
	}
}

// BenchmarkTable1Estimator regenerates Table 1: estimator speedup-vs-time
// prediction errors across six applications.
func BenchmarkTable1Estimator(b *testing.B) { benchExperiment(b, "table1") }

// BenchmarkFig6TileSize regenerates Figure 6: GPU speedup vs tile size,
// synchronous vs asynchronous copies.
func BenchmarkFig6TileSize(b *testing.B) { benchExperiment(b, "fig6") }

// BenchmarkFig7Streams regenerates Figure 7: VI execution time vs the
// number of concurrent CUDA streams per chunk size.
func BenchmarkFig7Streams(b *testing.B) { benchExperiment(b, "fig7") }

// BenchmarkTable2Dynamic regenerates Table 2: Algorithm 1's dynamic stream
// count vs the best static configuration.
func BenchmarkTable2Dynamic(b *testing.B) { benchExperiment(b, "table2") }

// BenchmarkTable3CPUOnly regenerates Table 3: CPU-only NBIA times vs
// recalculation rate.
func BenchmarkTable3CPUOnly(b *testing.B) { benchExperiment(b, "table3") }

// BenchmarkFig8IntraFilter regenerates Figure 8: GPU-only vs DDFCFS vs
// DDWRR on one node.
func BenchmarkFig8IntraFilter(b *testing.B) { benchExperiment(b, "fig8") }

// BenchmarkTable4Profile regenerates Table 4: per-resolution CPU work
// profile at 16% recalculation.
func BenchmarkTable4Profile(b *testing.B) { benchExperiment(b, "table4") }

// BenchmarkFig9HomoBase regenerates Figure 9: the homogeneous base case.
func BenchmarkFig9HomoBase(b *testing.B) { benchExperiment(b, "fig9") }

// BenchmarkFig10HeteroBase regenerates Figure 10: the heterogeneous base
// case.
func BenchmarkFig10HeteroBase(b *testing.B) { benchExperiment(b, "fig10") }

// BenchmarkTable6GPUProfile regenerates Table 6: per-resolution GPU work
// profile per stream policy.
func BenchmarkTable6GPUProfile(b *testing.B) { benchExperiment(b, "table6") }

// BenchmarkFig11RequestSize regenerates Figure 11: exhaustive search for
// the best static streamRequestsSize.
func BenchmarkFig11RequestSize(b *testing.B) { benchExperiment(b, "fig11") }

// BenchmarkFig12ODDSTrace regenerates Figure 12: ODDS utilization and
// dynamic request-size traces.
func BenchmarkFig12ODDSTrace(b *testing.B) { benchExperiment(b, "fig12") }

// BenchmarkFig13ScaleHomo regenerates Figure 13: scaling the homogeneous
// cluster.
func BenchmarkFig13ScaleHomo(b *testing.B) { benchExperiment(b, "fig13") }

// BenchmarkFig14ScaleHetero regenerates Figure 14: scaling the
// heterogeneous cluster.
func BenchmarkFig14ScaleHetero(b *testing.B) { benchExperiment(b, "fig14") }

// Micro-benchmarks of the real computational kernels, so performance
// regressions in the substrate implementations are visible too.

func BenchmarkKernelBlackScholes(b *testing.B) {
	S := make([]float64, 1000)
	K := make([]float64, 1000)
	out := make([]float64, 1000)
	for i := range S {
		S[i] = 90 + float64(i%20)
		K[i] = 100
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microbench.BlackScholesBatch(S, K, 0.05, 0.2, 1, out)
	}
}

func BenchmarkKernelNBodyStep(b *testing.B) {
	bodies := make([]microbench.Body, 256)
	for i := range bodies {
		bodies[i] = microbench.Body{X: float64(i), Y: float64(i % 7), Mass: 1}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		microbench.NBodyStep(bodies, 1e-3, 0.05)
	}
}

func BenchmarkKernelHeartStep(b *testing.B) {
	h := microbench.NewHeartSim(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Step()
	}
}

func BenchmarkKernelVIIncrement(b *testing.B) {
	v := make([]int32, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		vi.Increment(v, vi.Iterations)
	}
}

// Extension experiments (see DESIGN.md): mechanism ablations, the estimator
// model zoo, concurrent GPU execution and the variance study.

func BenchmarkAblation(b *testing.B) { benchExperiment(b, "ablation") }

func BenchmarkModels(b *testing.B) { benchExperiment(b, "models") }

func BenchmarkGPUSharing(b *testing.B) { benchExperiment(b, "gpusharing") }

func BenchmarkVariance(b *testing.B) { benchExperiment(b, "variance") }

func BenchmarkFusion(b *testing.B) { benchExperiment(b, "fusion") }

func BenchmarkPushRR(b *testing.B) { benchExperiment(b, "pushrr") }

func BenchmarkChaos(b *testing.B) { benchExperiment(b, "chaos") }

// Full-report benchmarks: the complete EXPERIMENTS.md regeneration, serial
// vs on the sweep worker pool. On a multi-core host the parallel run should
// finish in a fraction of the serial wall time with byte-identical output
// (TestRunAllDeterminism asserts the identity); cmd/benchsweep packages the
// same comparison as a machine-readable BENCH_sweep.json.

// benchRunAll regenerates the whole report once per iteration with the
// given worker-pool size (0 = default: ANTHILL_WORKERS or GOMAXPROCS).
func benchRunAll(b *testing.B, workers int) {
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		failed, err := experiments.RunAll(cfg(), io.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if failed > 0 {
			b.Fatalf("%d shape checks failed", failed)
		}
	}
}

func BenchmarkRunAllSerial(b *testing.B) { benchRunAll(b, 1) }

func BenchmarkRunAllParallel(b *testing.B) { benchRunAll(b, 0) }
