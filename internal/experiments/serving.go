package experiments

// The serving experiment is the open-system extension study: instead of a
// fixed batch of tiles, requests arrive continuously at an admission-
// controlled gateway and flow to a heterogeneous pool of serve replicas
// (one CPU-only node, one GPU node) through each demand-driven stream
// policy. The sweep offers Poisson load at fractions of the pool's service
// capacity — including one overload point — and reports per-request
// end-to-end latency percentiles (p50/p99/p999 from the deterministic GK
// sketch), shed counts, and the peak gateway queue depth, plus a stage
// breakdown (gateway wait, serve queue, service) of the worst SLO-violating
// request at overload.
//
// It registers as an extra: `-exp serving` runs it, `-exp all` does not, so
// the pinned digest of the paper-order report is untouched.

import (
	"fmt"
	"strings"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
)

func init() {
	registerExtra(Experiment{
		ID:       "serving",
		Title:    "Open-system serving: latency percentiles and admission control under load",
		PaperRef: "extension",
		Run:      runServing,
	})
}

// servingLoads are the offered-load multiples of the pool's capacity; the
// last point is deliberate overload.
var servingLoads = []float64{0.3, 0.7, 1.5}

// servingCapacity is the two-node pool's aggregate service rate in
// requests/s, serve.Capacity(2, 1): node 0 contributes one CPU worker, node
// 1 one CPU worker plus one GPU worker, at serve.CPUCost = 1 ms and
// serve.GPUCost = 300 us. It is evaluated in exact untyped-constant
// arithmetic, which rounds 16000/3 once; Capacity's float64 evaluation
// lands one ulp higher, enough to move the 0.3x point from 399 requests to
// 400 and with it the pinned report (scripts/exp_serving_seed1.sha256).
const servingCapacity = 2/1e-3 + 1/300e-6

func servingHorizon(cfg Config) sim.Time {
	if cfg.Full {
		return 1500 * sim.Millisecond
	}
	return 250 * sim.Millisecond
}

// servingPoint is the outcome of one (load, policy) cell.
type servingPoint struct {
	stats *arrival.Stats
	sink  *serve.Sink
	err   error
}

// runServingPoint executes one open-system run: Poisson (or scripted)
// arrivals at an admission-controlled gateway, the two-node heterogeneous
// serve pool, one stream policy. A span collector chains in front of the
// sink, so the worst violator's lineage can be built after the run.
func runServingPoint(seed int64, pol func() policy.StreamPolicy, times []sim.Time) servingPoint {
	rt := core.New(hw.NewCluster(sim.NewKernel(seed), serve.Pool(), nil), nil)
	pl := serve.Pipeline{Placement: []int{0, 1}, QueueLimit: serve.DefaultQueueLimit, Policy: pol(), Times: times}
	col := span.NewCollector()
	pt := servingPoint{sink: serve.NewSink(pl, serve.DefaultSLO, col)}
	pt.sink.Attach(rt)
	col.Attach(rt)
	pt.stats = serve.Build(rt, pl)
	if _, err := rt.Run(); err != nil {
		pt.err = err
	} else {
		pt.err = rt.Validate()
	}
	return pt
}

// servingCell renders one point's table cells (offered onward) and checks
// its conservation and queue bound; fail describes the first failure.
func servingCell(pt servingPoint) (cells []string, bounded bool, fail string) {
	if pt.err != nil {
		return []string{"-", "-", "-", "-", "-", "-", "ERROR"}, true, pt.err.Error()
	}
	st, sk := pt.stats, pt.sink
	if !sk.Conserved(st) {
		fail = fmt.Sprintf("offered %d, accepted %d, rejected %d, served %d, %d duplicated or unadmitted",
			st.Offered, st.Accepted, st.Rejected, sk.Served, sk.Orphans)
	}
	return []string{
		fmt.Sprintf("%d", st.Offered),
		fmt.Sprintf("%d", st.Rejected),
		servingMS(sk.Latency, 0.50),
		servingMS(sk.Latency, 0.99),
		servingMS(sk.Latency, 0.999),
		fmt.Sprintf("%d", sk.MaxDepth),
		fmt.Sprintf("%d", sk.Violations),
	}, sk.MaxDepth <= serve.DefaultQueueLimit, fail
}

// servingWorst renders the worst SLO violator's breakdown and lineage.
func servingWorst(name string, sk *serve.Sink) []string {
	w, ok := sk.Worst()
	if !ok {
		return nil
	}
	lines := []string{fmt.Sprintf("- %s: %s", name, w.Breakdown)}
	if w.Lineage != "" {
		lines = append(lines, fmt.Sprintf("  - lineage: %s", w.Lineage))
	}
	return lines
}

// servingMS formats a sketch quantile (stored in seconds of virtual time)
// in milliseconds.
func servingMS(s *obs.Sketch, q float64) string {
	return fmt.Sprintf("%.3f", s.Quantile(q)/float64(sim.Millisecond))
}

func runServing(cfg Config) *Report {
	if cfg.ArrivalSpec != "" {
		return runServingScripted(cfg)
	}
	np := len(paperPols)
	horizon := servingHorizon(cfg)
	// Point grid: (load, policy), policies contiguous per load. Each point
	// draws its arrival instants from (seed, point index), so the sweep is
	// deterministic on any worker count.
	points := parallel.SweepMap(len(servingLoads)*np, func(i int) servingPoint {
		load := servingLoads[i/np]
		seed := parallel.PointSeed(cfg.Seed, i)
		rate := load * servingCapacity
		sched := &arrival.Schedule{Procs: []arrival.Proc{{
			Kind: arrival.Poisson, Rate: rate, N: int(rate * float64(horizon)),
		}}}
		return runServingPoint(seed, paperPols[i%np].New, sched.Times(seed))
	})

	tb := metrics.Table{
		Title: fmt.Sprintf("Open-system serving, 2-node heterogeneous pool (capacity %.0f req/s), Poisson arrivals over %.0f ms, gateway queue limit %d, SLO %.0f ms",
			servingCapacity, float64(horizon)/float64(sim.Millisecond),
			serve.DefaultQueueLimit, float64(serve.DefaultSLO)/float64(sim.Millisecond)),
		Header: []string{"Load", "Policy", "offered", "shed", "p50 ms", "p99 ms", "p999 ms", "max queue", "SLO viol"},
	}
	series := make([]metrics.Series, np)
	for pi, p := range paperPols {
		series[pi] = metrics.Series{Label: p.Name}
	}
	series[0].XLabel = "offered load (x capacity)"

	allConserved, bounded, overloadSheds, latencyRises, violRise := true, true, true, true, true
	var failDetail string
	last := len(servingLoads) - 1
	var worstLines []string
	for li, load := range servingLoads {
		for pi, p := range paperPols {
			pt := points[li*np+pi]
			cells, ok, fail := servingCell(pt)
			tb.AddRow(append([]string{fmt.Sprintf("%gx", load), p.Name}, cells...)...)
			if fail != "" {
				allConserved = false
				failDetail = fmt.Sprintf("%s @ %gx: %s", p.Name, load, fail)
			}
			if pt.err != nil {
				continue
			}
			bounded = bounded && ok
			if li == last {
				if pt.stats.Rejected == 0 {
					overloadSheds = false
				}
				low := points[0*np+pi]
				if low.err == nil && pt.sink.Latency.Quantile(0.99) <= low.sink.Latency.Quantile(0.99) {
					latencyRises = false
				}
				if low.err == nil && pt.sink.Violations <= low.sink.Violations {
					violRise = false
				}
				worstLines = append(worstLines, servingWorst(p.Name, pt.sink)...)
			}
			series[pi].Add(load, pt.sink.Latency.Quantile(0.99)/float64(sim.Millisecond))
		}
	}
	if failDetail == "" {
		failDetail = "every (load, policy) cell served each admitted request exactly once"
	}
	body := tb.Render()
	if len(worstLines) > 0 {
		body += fmt.Sprintf("\n**Stage breakdown of the worst SLO violator at %gx load:**\n\n%s\n",
			servingLoads[last], strings.Join(worstLines, "\n"))
	}
	return &Report{
		ID: "serving", Title: "Open-system serving under admission control", PaperRef: "extension",
		Expectation: "the demand-driven runtime degrades gracefully as an open system: " +
			"below capacity every request meets the SLO, at overload the gateway sheds " +
			"instead of queueing unboundedly, latency percentiles rise with offered load, " +
			"and every admitted request is served exactly once.",
		Body:   body,
		Series: series,
		Checks: []Check{
			check("requests conserved at every load", allConserved, "%s", failDetail),
			check("gateway queue bounded by the admission limit", bounded,
				"peak depth <= %d at every (load, policy) cell", serve.DefaultQueueLimit),
			check("overload sheds for every policy", overloadSheds,
				"rejected > 0 at %gx load", servingLoads[last]),
			check("p99 latency rises with offered load", latencyRises,
				"p99 at %gx exceeds p99 at %gx for every policy", servingLoads[last], servingLoads[0]),
			check("SLO violations concentrate at overload", violRise,
				"violations at %gx exceed violations at %gx for every policy", servingLoads[last], servingLoads[0]),
		},
	}
}

// runServingScripted evaluates a user-written -arrivals spec against each
// policy instead of the default load sweep.
func runServingScripted(cfg Config) *Report {
	sched, perr := arrival.Parse(cfg.ArrivalSpec)
	rep := &Report{
		ID: "serving", Title: "Open-system serving (scripted arrivals)", PaperRef: "extension",
		Expectation: "the runtime serves the user-supplied arrival schedule with bounded " +
			"gateway queueing and exactly-once processing of every admitted request.",
	}
	if perr != nil {
		rep.Body = fmt.Sprintf("Arrival spec rejected: `%v`\n", perr)
		rep.Checks = []Check{check("arrival spec parses", false, "%v", perr)}
		return rep
	}
	points := parallel.SweepMap(len(paperPols), func(i int) servingPoint {
		seed := parallel.PointSeed(cfg.Seed, i)
		return runServingPoint(seed, paperPols[i].New, sched.Times(seed))
	})
	tb := metrics.Table{
		Title: fmt.Sprintf("Scripted arrivals `%s` (%d requests), 2-node heterogeneous pool, gateway queue limit %d, SLO %.0f ms",
			sched.String(), sched.Count(), serve.DefaultQueueLimit,
			float64(serve.DefaultSLO)/float64(sim.Millisecond)),
		Header: []string{"Policy", "offered", "shed", "p50 ms", "p99 ms", "p999 ms", "max queue", "SLO viol"},
	}
	allConserved, bounded := true, true
	var failDetail string
	var worstLines []string
	for pi, p := range paperPols {
		pt := points[pi]
		cells, ok, fail := servingCell(pt)
		tb.AddRow(append([]string{p.Name}, cells...)...)
		if fail != "" {
			allConserved = false
			failDetail = fmt.Sprintf("%s: %s", p.Name, fail)
		}
		if pt.err != nil {
			continue
		}
		bounded = bounded && ok
		worstLines = append(worstLines, servingWorst(p.Name, pt.sink)...)
	}
	if failDetail == "" {
		failDetail = "every policy served each admitted request exactly once"
	}
	body := tb.Render()
	if len(worstLines) > 0 {
		body += fmt.Sprintf("\n**Stage breakdown of the worst SLO violator:**\n\n%s\n",
			strings.Join(worstLines, "\n"))
	}
	rep.Body = body
	rep.Checks = []Check{
		check("requests conserved under the scripted schedule", allConserved, "%s", failDetail),
		check("gateway queue bounded by the admission limit", bounded,
			"peak depth <= %d for every policy", serve.DefaultQueueLimit),
	}
	return rep
}
