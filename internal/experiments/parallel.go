package experiments

// Parallel sweep execution. Every figure and table of the evaluation is a
// sweep of independent deterministic simulations: each point builds its own
// sim.Kernel from a seed that is a pure function of (Config.Seed, point
// index), so points can run on any OS thread in any order without changing
// a single byte of the output. Sweep fans points across a bounded worker
// pool and the callers assemble results by point index, which makes the
// parallel report byte-identical to the serial one.
//
// The pool itself lives in internal/parallel (it is shared with the
// microbench profiling sweeps); experiments call it directly.

import "repro/internal/parallel"

// RunMany executes the given experiments — each itself a parallel sweep —
// and returns their reports in input order. Experiments are coarse and few,
// so they share the same pool machinery; with parallel.Workers() == 1
// everything runs inline, which is the serial reference path.
//
// With cfg.Observe set, the observability captures run serially here,
// after every sweep has drained: capture output order and content never
// depend on the worker-pool size.
func RunMany(cfg Config, exps []Experiment) []*Report {
	reps := parallel.SweepMap(len(exps), func(i int) *Report { return exps[i].Run(cfg) })
	if cfg.Observe {
		for _, rep := range reps {
			rep.Obs = RunCapture(cfg, rep.ID)
		}
	}
	return reps
}
