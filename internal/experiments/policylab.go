package experiments

// The policy lab races the pluggable rival schedulers (policy.Scheduler)
// against the paper's own stream policies across cluster shapes: for every
// (shape, policy) cell it measures batch makespan with a span attribution
// of where the time went, open-system tail latency under admission control,
// and chaos resilience (makespan degradation plus an exactly-once work
// audit under a seeded random fault schedule). The six raced policies come
// from the constructor registry — the paper's DDFCFS/DDWRR/ODDS and the
// three rivals (XKaapi-style affinity, graph-partition hybrid, epsilon-
// greedy bandit over the estimator's features) — minus the blind-push
// baseline the paper's studies also exclude.
//
// It registers as an extra: `-exp policylab` runs it, `-exp all` does not,
// so the pinned digest of the paper-order report is untouched.

import (
	"fmt"
	"strings"

	"repro/internal/apps/nbia"
	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
)

func init() {
	registerExtra(Experiment{
		ID:       "policylab",
		Title:    "Policy lab: rival schedulers raced against the paper's policies",
		PaperRef: "extension",
		Run:      runPolicylab,
	})
}

const (
	// labRecalc is the batch workload's recalculation rate (the chaos
	// experiment's setting).
	labRecalc = 0.08
	// labIntensity is the fault intensity of the chaos-resilience leg.
	labIntensity = 0.66
	// labReq is the static request size every demand policy runs with.
	labReq = 4
	// labLoad is the open-system offered load as a fraction of the
	// shape's aggregate service capacity: high enough to build queues
	// (tails differ between policies) without tipping into overload.
	labLoad = 0.9
)

func labTiles(cfg Config) int {
	if cfg.Full {
		return 4000
	}
	return 600
}

func labHorizon(cfg Config) sim.Time {
	if cfg.Full {
		return 400 * sim.Millisecond
	}
	return 150 * sim.Millisecond
}

// labShape is one cluster shape of the matrix: GPU nodes first (with the
// NBIA PCIe link), then dual-core CPU-only nodes — the same layout
// HeteroCluster uses, so fault schedules address GPU nodes by prefix.
type labShape struct {
	name string
	gpus int
	cpus int
}

var labShapes = []labShape{
	{"balanced", 2, 2},
	{"gpu-heavy", 3, 1},
	{"cpu-heavy", 1, 5},
}

func (s labShape) nodes() int { return s.gpus + s.cpus }

func (s labShape) gpuIDs() []int {
	out := make([]int, s.gpus)
	for i := range out {
		out[i] = i
	}
	return out
}

func (s labShape) cluster(k *sim.Kernel) *hw.Cluster {
	specs := make([]hw.NodeSpec, 0, s.nodes())
	for i := 0; i < s.gpus; i++ {
		lc := nbia.PaperLink
		specs = append(specs, hw.NodeSpec{CPUCores: 2, HasGPU: true, Link: &lc})
	}
	for i := 0; i < s.cpus; i++ {
		specs = append(specs, hw.NodeSpec{CPUCores: 2})
	}
	return hw.NewCluster(k, specs, nil)
}

// labPolicyDef is one raced policy: a name and a fresh-per-run constructor
// (schedulers are stateful — values must never be shared between runs).
type labPolicyDef struct {
	name string
	mk   func() policy.StreamPolicy
}

// labPolicies derives the raced list from the constructor registry, so a
// policy added there automatically joins the matrix. The push baseline is
// excluded (the paper's studies race demand-driven policies only), and the
// bandit is specialized with the point seed and the estimator's normalized
// feature map — the DOPPLER-spirit configuration.
func labPolicies(seed int64, feats policy.FeatureFunc) []labPolicyDef {
	var out []labPolicyDef
	for _, c := range policy.Constructors() {
		c := c
		switch c.Name {
		case "RR-push":
			continue
		case "BANDIT":
			out = append(out, labPolicyDef{c.Name, func() policy.StreamPolicy {
				return policy.Bandit(labReq, seed, feats)
			}})
		default:
			out = append(out, labPolicyDef{c.Name, c.New})
		}
	}
	return out
}

// labHooks returns the scheduler-specific hook wiring for one fresh policy
// value: the affinity scheduler learns buffer residency from the Process
// hook (each processed task's node becomes the home of the buffers it
// produced). Nil for policies that need no wiring.
func labHooks(pol policy.StreamPolicy) func(rt *core.Runtime) {
	a, ok := pol.Sched.(*policy.AffinitySched)
	if !ok {
		return nil
	}
	return func(rt *core.Runtime) {
		core.Subscribe(&rt.Hooks.Process, func(r core.ProcRecord) {
			a.SetHome(r.TaskID, r.NodeID)
		})
	}
}

// labPoint is the outcome of one (shape, policy) cell.
type labPoint struct {
	// Batch leg.
	makespan  sim.Time
	completed int64
	expected  int64
	topKind   string // largest span-kind share of the batch critical path
	breakdown string // full per-kind attribution line
	covOK     bool   // attribution tiles the whole makespan
	// Open-system leg.
	p99     sim.Time
	shed    int
	offered int
	reqOK   bool // every admitted request served exactly once
	// Chaos leg.
	faulted sim.Time
	unique  int
	dupes   int
	err     error
}

func (p labPoint) degradation() float64 {
	if p.makespan <= 0 {
		return 0
	}
	return (float64(p.faulted)/float64(p.makespan) - 1) * 100
}

func (p labPoint) chaosConserved() bool {
	return p.err == nil && p.dupes == 0 && int64(p.unique) == p.expected
}

func (p labPoint) batchComplete() bool {
	return p.err == nil && p.completed == p.expected
}

// runLabBatch runs the NBIA batch workload on the shape with a fresh policy
// and optional fault schedule, a span collector attached when col is
// non-nil, and the policy's scheduler hooks wired.
func runLabBatch(cfg Config, s labShape, def labPolicyDef, seed int64,
	sched *fault.Schedule, records bool, col *span.Collector) (*nbia.Result, error) {
	k := sim.NewKernel(seed)
	pol := def.mk()
	hooks := labHooks(pol)
	return nbia.Run(nbia.Config{
		Cluster:     s.cluster(k),
		Tiles:       labTiles(cfg),
		RecalcRate:  labRecalc,
		Policy:      pol,
		UseGPU:      true,
		CPUWorkers:  -1,
		AsyncCopy:   true,
		Weights:     nbia.WeightEstimator,
		Seed:        seed + 17,
		RecordProcs: records,
		Faults:      sched,
		Hooks: func(rt *core.Runtime) {
			if col != nil {
				col.Attach(rt)
			}
			if hooks != nil {
				hooks(rt)
			}
		},
	})
}

// runLabOpen runs the open-system leg: Poisson arrivals at labLoad times
// the shape's capacity into an admission-controlled gateway feeding a serve
// stage replicated on every node. Tasks carry the CPU/GPU speedup weights,
// so weighted and scheduler-driven policies see real relative advantage.
func runLabOpen(cfg Config, s labShape, def labPolicyDef, seed int64, pt *labPoint) {
	rt := core.New(s.cluster(sim.NewKernel(seed)), nil)
	placement := make([]int, s.nodes())
	for i := range placement {
		placement[i] = i
	}
	rate := labLoad * serve.Capacity(s.nodes(), s.gpus)
	sched := &arrival.Schedule{Procs: []arrival.Proc{{
		Kind: arrival.Poisson, Rate: rate, N: int(rate * labHorizon(cfg).Seconds()),
	}}}
	pl := serve.Pipeline{
		Placement: placement, QueueLimit: serve.DefaultQueueLimit,
		Policy: def.mk(), Times: sched.Times(seed), Weighted: true,
	}
	sink := serve.NewSink(pl, serve.DefaultSLO, nil)
	sink.Attach(rt)
	if hooks := labHooks(pl.Policy); hooks != nil {
		hooks(rt)
	}
	st := serve.Build(rt, pl)
	if _, err := rt.Run(); err != nil {
		pt.err = fmt.Errorf("open: %w", err)
		return
	}
	if err := rt.Validate(); err != nil {
		pt.err = fmt.Errorf("open: %w", err)
		return
	}
	pt.p99 = sim.Time(sink.Latency.Quantile(0.99))
	pt.shed = st.Rejected
	pt.offered = st.Offered
	pt.reqOK = sink.Conserved(st)
}

// runPolicylabPoint runs all three legs of one (shape, policy) cell.
func runPolicylabPoint(cfg Config, s labShape, def labPolicyDef, seed int64) labPoint {
	pt := labPoint{expected: nbia.ExpectedLineages(labTiles(cfg), nbia.DefaultLevels, labRecalc, 0)}

	// Batch leg, with span attribution of the healthy critical path.
	col := span.NewCollector()
	base, err := runLabBatch(cfg, s, def, seed, nil, false, col)
	if err != nil {
		pt.err = fmt.Errorf("batch: %w", err)
		return pt
	}
	pt.makespan = base.Makespan
	pt.completed = base.Completed
	if a, err := col.Build(base.Makespan); err != nil {
		pt.err = fmt.Errorf("span: %w", err)
		return pt
	} else {
		pt.breakdown = a.Breakdown()
		pt.covOK = a.Coverage() == 100
		if bk := a.ByKind(); len(bk) > 0 {
			pt.topKind = fmt.Sprintf("%s %.0f%%", bk[0].Key, bk[0].Pct)
		}
	}

	// Chaos leg: the same workload under a seeded random fault schedule
	// scaled to the healthy horizon, audited for exactly-once processing.
	sched := fault.Random(seed, labIntensity, fault.Shape{
		Nodes:     s.nodes(),
		GPUNodes:  s.gpuIDs(),
		Horizon:   base.Makespan,
		Filter:    "nbia",
		Instances: s.nodes(),
	})
	res, err := runLabBatch(cfg, s, def, seed, sched, true, nil)
	if err != nil {
		pt.err = fmt.Errorf("chaos: %w", err)
		return pt
	}
	pt.faulted = res.Makespan
	seen := map[nbia.TileRef]int{}
	for _, r := range res.Records {
		seen[r.Payload.(nbia.TileRef)]++
	}
	pt.unique = len(seen)
	for _, n := range seen {
		if n > 1 {
			pt.dupes++
		}
	}

	// Open-system leg: tail latency under admission control.
	runLabOpen(cfg, s, def, seed, &pt)
	return pt
}

func runPolicylab(cfg Config) *Report {
	// The policy list depends only on names; build it once with throwaway
	// parameters to size the grid (each point constructs its own).
	np := len(labPolicies(0, nil))
	points := parallel.SweepMap(len(labShapes)*np, func(i int) labPoint {
		s := labShapes[i/np]
		seed := parallel.PointSeed(cfg.Seed, i)
		// The bandit's feature map is the estimator's own normalization,
		// trained on the same profile the batch run's estimator uses
		// (nbia.Run derives its profile seed as config seed + 1).
		profile := nbia.BuildProfile(nbia.DefaultLevels, 30, seed+17+1)
		return runPolicylabPoint(cfg, s, labPolicies(seed, profile.Features)[i%np], seed)
	})

	tb := metrics.Table{
		Title: fmt.Sprintf("Policy lab: %d tiles at %g%% recalculation per batch, open load %gx capacity over %.0f ms, chaos intensity %g",
			labTiles(cfg), labRecalc*100, labLoad,
			float64(labHorizon(cfg))/float64(sim.Millisecond), labIntensity),
		Header: []string{"Shape", "Policy", "batch ms", "p99 ms", "shed", "chaos %", "lineages", "conserved", "top span kind"},
	}
	names := labPolicies(0, nil)
	series := make([]metrics.Series, np)
	for pi, p := range names {
		series[pi] = metrics.Series{Label: p.name}
	}
	series[0].XLabel = "cluster shape index"

	allRan, allComplete, allChaosOK, allReqOK, allCovOK := true, true, true, true, true
	var failDetail string
	var winnerLines []string
	for si, s := range labShapes {
		bestM, worstM, bestP := -1, -1, -1
		for pi, p := range names {
			pt := points[si*np+pi]
			if pt.err != nil {
				allRan = false
				failDetail = fmt.Sprintf("%s/%s: %v", s.name, p.name, pt.err)
				tb.AddRow(s.name, p.name, "-", "-", "-", "-", "-", "ERROR", "-")
				continue
			}
			if !pt.batchComplete() {
				allComplete = false
				failDetail = fmt.Sprintf("%s/%s: %d/%d lineages completed",
					s.name, p.name, pt.completed, pt.expected)
			}
			if !pt.chaosConserved() {
				allChaosOK = false
				failDetail = fmt.Sprintf("%s/%s: %d/%d lineages under chaos, %d duplicated",
					s.name, p.name, pt.unique, pt.expected, pt.dupes)
			}
			if !pt.reqOK {
				allReqOK = false
				failDetail = fmt.Sprintf("%s/%s: open-system requests not conserved", s.name, p.name)
			}
			if !pt.covOK {
				allCovOK = false
				failDetail = fmt.Sprintf("%s/%s: span attribution does not tile the makespan", s.name, p.name)
			}
			if bestM < 0 || pt.makespan < points[si*np+bestM].makespan {
				bestM = pi
			}
			if worstM < 0 || pt.makespan > points[si*np+worstM].makespan {
				worstM = pi
			}
			if bestP < 0 || pt.p99 < points[si*np+bestP].p99 {
				bestP = pi
			}
			series[pi].Add(float64(si), float64(pt.makespan)/float64(sim.Millisecond))
			tb.AddRow(s.name, p.name,
				fmt.Sprintf("%.1f", float64(pt.makespan)/float64(sim.Millisecond)),
				fmt.Sprintf("%.3f", float64(pt.p99)/float64(sim.Millisecond)),
				fmt.Sprintf("%d/%d", pt.shed, pt.offered),
				fmt.Sprintf("%.1f", pt.degradation()),
				fmt.Sprintf("%d/%d", pt.completed, pt.expected),
				yesNo(pt.chaosConserved() && pt.reqOK),
				pt.topKind)
		}
		if bestM >= 0 && worstM >= 0 && bestP >= 0 {
			ms := func(t sim.Time) string {
				return fmt.Sprintf("%.1f", float64(t)/float64(sim.Millisecond))
			}
			best, worst := points[si*np+bestM], points[si*np+worstM]
			winnerLines = append(winnerLines,
				fmt.Sprintf("- %s: fastest batch %s (%s ms), slowest %s (%s ms); best p99 %s (%.3f ms)",
					s.name, names[bestM].name, ms(best.makespan),
					names[worstM].name, ms(worst.makespan),
					names[bestP].name, float64(points[si*np+bestP].p99)/float64(sim.Millisecond)),
				fmt.Sprintf("  - %s critical path: %s", names[bestM].name, best.breakdown),
				fmt.Sprintf("  - %s critical path: %s", names[worstM].name, worst.breakdown))
		}
	}
	if failDetail == "" {
		failDetail = fmt.Sprintf("every (shape, policy) cell ran all three legs over %d shapes x %d policies",
			len(labShapes), np)
	}
	body := tb.Render()
	if len(winnerLines) > 0 {
		body += fmt.Sprintf("\n**Per-shape winners, with span attribution of the batch critical paths:**\n\n%s\n",
			strings.Join(winnerLines, "\n"))
	}
	return &Report{
		ID: "policylab", Title: "Policy lab: rival schedulers vs the paper's policies", PaperRef: "extension",
		Expectation: "pluggable rival schedulers (XKaapi-style affinity, graph-partition hybrid, " +
			"epsilon-greedy bandit) race the paper's demand-driven policies across cluster " +
			"shapes without breaking any runtime invariant: batch lineages complete, chaos " +
			"schedules stay work-conserving, open-system requests are served exactly once, " +
			"and the span attribution explains each cell's critical path.",
		Body:   body,
		Series: series,
		Checks: []Check{
			check(fmt.Sprintf("matrix races %d policies on every shape", np),
				allRan && np == 6, "%s", failDetail),
			check("batch lineages complete in every cell", allComplete, "%s", failDetail),
			check("work conserved under the chaos schedule in every cell", allChaosOK, "%s", failDetail),
			check("open-system requests served exactly once in every cell", allReqOK, "%s", failDetail),
			check("span attribution tiles every batch makespan", allCovOK, "%s", failDetail),
		},
	}
}
