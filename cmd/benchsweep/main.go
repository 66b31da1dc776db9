// Command benchsweep measures the experiment-sweep harness end to end and
// writes a machine-readable summary (BENCH_sweep.json by default): wall
// time of the full report regeneration serially (1 worker) and on the
// worker pool, sweep points per second for both, the resulting speedup,
// the cost of enabling the attribution/observability captures
// (explain_overhead_pct — the price of -explain, paid only when asked
// for), the cost of the live demo server's observability sink, one row per
// subscriber (live_sink — serve sinks, span collector, obs registry, each
// attached on top of the previous on the same serve-engine drain), the
// simulation kernel's allocation profile and ns/event on its hot-path
// workloads, one of them with a deep event queue, and the cost of one
// demand-protocol round trip in the runtime.
//
// Usage:
//
//	benchsweep [-o BENCH_sweep.json] [-seed N] [-full] [-workers N]
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/policy"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/task"
)

type runResult struct {
	Mode         string  `json:"mode"`
	Workers      int     `json:"workers"`
	WallSeconds  float64 `json:"wall_seconds"`
	Points       int64   `json:"points"`
	PointsPerSec float64 `json:"points_per_sec"`
}

type allocResult struct {
	Workload    string  `json:"workload"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// kernelBench is the absolute per-event cost of one kernel hot-path
// workload. LaneShare, BypassShare and HeapHighWater, from
// sim.KernelStats, say how the workload uses the event queue: the share of
// its wakeups scheduled at the current instant (the FIFO lane) rather than
// later (timed), the share of the timed ones that joined a fixed-delay lane
// rather than the heap, and the timed backlog's deepest point.
type kernelBench struct {
	Workload       string  `json:"workload"`
	Events         int     `json:"events"`
	StepNsPerEvent float64 `json:"step_ns_per_event"`
	LaneShare      float64 `json:"lane_share,omitempty"`
	BypassShare    float64 `json:"bypass_share,omitempty"`
	HeapHighWater  int     `json:"heap_high_water,omitempty"`
}

// demandRoundBench is the marginal cost of one demand-protocol round trip
// (demand message, request hand-off, sender selection, reply transmission,
// reply wait, settle) in the runtime: the difference in wall time and
// allocations between a short and a long run of the same pipeline, divided
// by the difference in rounds issued.
type demandRoundBench struct {
	Workload       string  `json:"workload"`
	Rounds         int     `json:"rounds"`
	NsPerRound     float64 `json:"ns_per_round"`
	AllocsPerRound float64 `json:"allocs_per_round"`
}

// drainStat is the wall time of repeated drains of one configuration.
type drainStat struct {
	Drains   int     `json:"drains"`
	MedianMs float64 `json:"median_ms"`
	MinMs    float64 `json:"min_ms"`
	MaxMs    float64 `json:"max_ms"`
}

// sinkLayer is one live-sink subscriber's row: the drain with it and every
// layer before it attached, and its marginal cost, the median drain over
// the previous layer's median.
type sinkLayer struct {
	Subscriber  string    `json:"subscriber"`
	Drain       drainStat `json:"drain"`
	OverheadPct float64   `json:"overhead_pct"`
}

// liveSinkBench prices the live demo engine's observability sink on the
// engine's drain workload (sinkDrain). Base is the hook-free drain; each
// layer adds one subscriber in the engine's attachment order; TotalPct is
// the full sink's median over the base median.
type liveSinkBench struct {
	Base     drainStat   `json:"base"`
	Layers   []sinkLayer `json:"layers"`
	TotalPct float64     `json:"total_overhead_pct"`
}

type summary struct {
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	NumCPU     int         `json:"num_cpu"`
	GOMAXPROCS int         `json:"gomaxprocs"`
	Seed       int64       `json:"seed"`
	FullScale  bool        `json:"full_scale"`
	Runs       []runResult `json:"runs"`
	Speedup    float64     `json:"parallel_speedup"`
	// EffectiveParallelism is the concurrency the parallel run can actually
	// exploit: the worker-pool size capped by GOMAXPROCS. When it is 1 the
	// serial-vs-parallel comparison degenerates — the pool only adds
	// scheduling overhead — so ParallelComparisonValid is false and Speedup
	// must not be read as a machine capability.
	EffectiveParallelism    int    `json:"effective_parallelism"`
	ParallelComparisonValid bool   `json:"parallel_comparison_valid"`
	ParallelNote            string `json:"parallel_note,omitempty"`
	Identical               bool   `json:"outputs_identical"`
	// ExplainOverheadPct is the extra wall time of the pooled run with the
	// observability captures (span collector + trace + metrics) attached,
	// relative to the plain pooled run. With captures disabled the hook bus
	// is nil-guarded and costs nothing — this records the price actually
	// paid when -explain/-trace are requested.
	ExplainOverheadPct float64 `json:"explain_overhead_pct"`
	// LiveSink is the extra wall time of draining the live demo engine's
	// pipelines (cmd/anthill-serve's multi-policy serving simulation) with
	// each subscriber of its observability sink attached, relative to the
	// same drain with none (as serve.Config.DisableSink runs it): the
	// per-event price of live observability, as opposed to
	// explain_overhead_pct's price of the batch capture artifacts.
	LiveSink    liveSinkBench    `json:"live_sink"`
	SimAllocs   []allocResult    `json:"sim_kernel_allocs"`
	KernelBench []kernelBench    `json:"kernel_ns_per_event"`
	DemandRound demandRoundBench `json:"demand_round"`
}

// timedRunAll regenerates the full report with the given pool size and
// returns the wall time, the sweep-point count and the rendered bytes.
func timedRunAll(cfg experiments.Config, workers int) (runResult, string) {
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(0)
	parallel.ResetPointCount()
	var buf writerCounter
	start := time.Now()
	failed, err := experiments.RunAll(cfg, &buf)
	wall := time.Since(start).Seconds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "benchsweep: %d shape checks failed\n", failed)
		os.Exit(1)
	}
	mode := "parallel"
	if workers == 1 {
		mode = "serial"
	}
	if cfg.Observe {
		mode += "+explain"
	}
	points := parallel.PointCount()
	return runResult{
		Mode: mode, Workers: workers, WallSeconds: wall,
		Points: points, PointsPerSec: float64(points) / wall,
	}, buf.String()
}

// timedExtra regenerates one on-demand experiment (an extra, so RunAll
// never covers it) on the given pool size and times it, as a workload row
// of the summary. Used for the serving and policylab extras.
func timedExtra(id string, cfg experiments.Config, workers int) runResult {
	e, ok := experiments.ByID(id)
	if !ok {
		fmt.Fprintf(os.Stderr, "benchsweep: %s experiment not registered\n", id)
		os.Exit(1)
	}
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(0)
	parallel.ResetPointCount()
	start := time.Now()
	rep := e.Run(cfg)
	wall := time.Since(start).Seconds()
	if !rep.Passed() {
		fmt.Fprintf(os.Stderr, "benchsweep: %s shape checks failed\n", id)
		os.Exit(1)
	}
	points := parallel.PointCount()
	return runResult{
		Mode: id, Workers: workers, WallSeconds: wall,
		Points: points, PointsPerSec: float64(points) / wall,
	}
}

// writerCounter accumulates the report so the serial and parallel renders
// can be compared byte for byte.
type writerCounter struct{ b []byte }

func (w *writerCounter) Write(p []byte) (int, error) { w.b = append(w.b, p...); return len(p), nil }
func (w *writerCounter) String() string              { return string(w.b) }

// allocsPerRun measures the average mallocs of fn over reps runs, after one
// warm-up call (mirrors testing.AllocsPerRun without importing testing into
// a main binary).
func allocsPerRun(reps int, fn func()) float64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	fn()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < reps; i++ {
		fn()
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(reps)
}

// demandRounds is the workload of core's TestDemandRoundAllocs: a DDWRR(32)
// source → worker pipeline on four dual-core nodes, 48 tasks from a source
// on node 0, each costing cost on a CPU. The tasks all leave the source
// early; the requesters then poll it, getting empty replies, until the last
// task completes, so the rounds grow with cost and nothing else does. It
// returns the DemandIssued records.
func demandRounds(cost sim.Time) int {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2}}, nil)
	rt := core.New(c, nil)
	src := rt.AddFilter(core.FilterSpec{
		Name:      "source",
		Placement: []int{0},
		Seed: func(_ int, emit func(*task.Task)) {
			for i := 0; i < 48; i++ {
				emit(&task.Task{Size: 1000, OutSize: 100, Cost: func(*task.Task, hw.Kind) sim.Time { return cost }})
			}
		},
	})
	wf := rt.AddFilter(core.FilterSpec{
		Name:      "worker",
		Placement: []int{0, 1, 2, 3},
		Handler:   func(*core.Ctx, *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(src, wf, policy.DDWRR(32))
	issued := 0
	rt.Hooks.Demand = func(r core.DemandRecord) {
		if r.Event == core.DemandIssued {
			issued++
		}
	}
	if _, err := rt.Run(); err != nil {
		panic(err)
	}
	return issued
}

// demandRoundCost measures the demand_round row from a 1 ms and a 20 ms
// run of demandRounds.
func demandRoundCost(reps int) demandRoundBench {
	short := func() { demandRounds(sim.Millisecond) }
	long := func() { demandRounds(20 * sim.Millisecond) }
	rounds := demandRounds(20*sim.Millisecond) - demandRounds(sim.Millisecond)
	return demandRoundBench{
		Workload:       "ddwrr32_source_to_4x2_cpu_workers",
		Rounds:         rounds,
		NsPerRound:     (secsPerRun(reps, long) - secsPerRun(reps, short)) * 1e9 / float64(rounds),
		AllocsPerRound: (allocsPerRun(reps, long) - allocsPerRun(reps, short)) / float64(rounds),
	}
}

// Kernel hot-path workloads, matching the benchmarks in internal/sim.

// eventLoopStep runs 4 processes that each wait 1000 times for 1 ms.
func eventLoopStep() {
	k := sim.NewKernel(1)
	for p := 0; p < 4; p++ {
		left := 1000
		var step sim.Step
		step = func(e *sim.Env) sim.Cont {
			if left == 0 {
				return sim.Done()
			}
			left--
			return sim.After(sim.Millisecond, step)
		}
		k.SpawnStep("worker", step)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// spawnChurnStep spawns 1000 short-lived processes strictly in sequence.
func spawnChurnStep() {
	k := sim.NewKernel(1)
	short := func(e *sim.Env) sim.Cont {
		return sim.After(sim.Microsecond, func(e *sim.Env) sim.Cont { return sim.Done() })
	}
	left := 1000
	var driver sim.Step
	driver = func(e *sim.Env) sim.Cont {
		if left == 0 {
			return sim.Done()
		}
		left--
		e.SpawnStep("short", short)
		return sim.After(sim.Millisecond, driver)
	}
	k.SpawnStep("driver", driver)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// messagePathStep is the runtime's per-message shape reduced to kernel
// primitives: spawn a short-lived transfer process, serialize on an
// exclusive NIC-like resource, deliver the reply through a channel the
// driver waits on. The same code as internal/sim's messagePathStepWorkload.
func messagePathStep() {
	k := sim.NewKernel(1)
	nic := sim.NewResource(k, 1)
	replies := sim.NewChan[int](k, 1)
	finish := func(e *sim.Env) sim.Cont {
		nic.Release()
		return replies.PutThen(e, 1, sim.DoneStep)
	}
	hold := func(e *sim.Env) sim.Cont { return sim.After(10*sim.Microsecond, finish) }
	send := func(e *sim.Env) sim.Cont { return nic.AcquireThen(e, hold) }
	left := 1000
	var driver sim.Step
	var onReply func(e *sim.Env, v int, ok bool) sim.Cont
	driver = func(e *sim.Env) sim.Cont {
		if left == 0 {
			return sim.Done()
		}
		left--
		e.SpawnStep("send", send)
		return replies.GetThen(e, onReply)
	}
	onReply = func(e *sim.Env, v int, ok bool) sim.Cont {
		if !ok {
			panic("benchsweep: reply channel closed early")
		}
		return driver(e)
	}
	k.SpawnStep("driver", driver)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// delayMix keeps procs processes cycling through rounds wakeups each;
// process i's n-th wakeup is delay(i, n) after the last, n starting at i.
// It returns the kernel's counters. The same code as internal/sim's
// delayMixWorkload.
func delayMix(procs, rounds int, delay func(i, n int) sim.Time) sim.KernelStats {
	k := sim.NewKernel(1)
	for i := 0; i < procs; i++ {
		n := i
		left := rounds
		var next sim.Step
		next = func(e *sim.Env) sim.Cont {
			if left == 0 {
				return sim.Done()
			}
			left--
			n++
			return sim.After(delay(i, n), next)
		}
		k.SpawnStep("worker", next)
	}
	if err := k.Run(); err != nil {
		panic(err)
	}
	return k.Stats()
}

// deepQueue keeps 100 processes cycling through three zero-delay wakeups
// and two timed wakeups of 1-8 ms, 300 wakeups each: about 100 timers stay
// pending and about 60% of pushes are at the current instant, the mix of
// the demand protocol's request/empty-reply rounds (the other kernel rows
// run 4 processes and never hold more than 4 timers). Its eight delays
// share four delay lanes, so about half of its timed wakeups go to the
// heap.
func deepQueue() sim.KernelStats {
	return delayMix(100, 300, func(_, n int) sim.Time {
		if n%5 < 3 {
			return 0
		}
		return sim.Time(1+n%8) * sim.Millisecond
	})
}

// fixedDelays keeps 300 processes cycling through 200 wakeups each, with
// the demand protocol's mix of delays: three in five at the current
// instant and, of the timed ones, 15 in 16 the 100 µs network latency or
// the 0.547 µs wire time of a control message. Every 16th process times
// one-off delays near a tile's 25 µs compute time instead. The same code
// as internal/sim's fixedDelayWorkload.
func fixedDelays() sim.KernelStats {
	oneOff := 0
	return delayMix(300, 200, func(i, n int) sim.Time {
		switch {
		case n%5 < 3:
			return 0
		case i%16 == 0:
			oneOff++
			return 25*sim.Microsecond + sim.Time(oneOff)*1e-12
		case n%5 == 3:
			return 100 * sim.Microsecond
		default:
			return 0.547 * sim.Microsecond
		}
	})
}

// queueCost is the kernel_ns_per_event row of a delayMix workload, with
// its event count and queue shape read from the kernel's counters.
func queueCost(name string, reps int, run func() sim.KernelStats) kernelBench {
	st := run()
	b := kernelCost(name, int(st.Dispatched), reps, func() { run() })
	b.LaneShare = float64(st.LanePushes) / float64(st.LanePushes+st.HeapPushes)
	b.BypassShare = float64(st.DelayLanePushes) / float64(st.HeapPushes)
	b.HeapHighWater = st.HeapHighWater
	return b
}

// sinkLayers names the live sink's subscribers in the order serve.New
// attaches them.
var sinkLayers = []string{"serve_sink", "span_collector", "obs_registry"}

// sinkDrain drains the live demo engine's pipelines — all three paper
// policies, each on its own two-node pool, racing a shared uniform schedule
// at ~0.9x one pipeline's capacity — with the first layers of the engine's
// live sink attached as serve.New attaches them: 0 is the hook-free
// engine, 1 adds each pipeline's serve.Sink feeding a sliding-window
// sketch, 2 the span collector the sinks keep request-scoped, 3 the obs
// registry.
func sinkDrain(layers int) {
	const n = 4000
	gap := sim.Time(1.0 / (0.9 * serve.Capacity(2, 1)))
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(i) * gap
	}
	pols := policy.Paper()
	var specs []hw.NodeSpec
	for range pols {
		specs = append(specs, serve.Pool()...)
	}
	cl := hw.NewCluster(sim.NewKernel(1), specs, nil)
	rt := core.New(cl, nil)
	var col *span.Collector
	if layers >= 2 {
		col = span.NewCollector()
	}
	pls := make([]serve.Pipeline, len(pols))
	for i, c := range pols {
		pls[i] = serve.Pipeline{
			Suffix: strings.ToLower(c.Name), Gateway: 2 * i, Placement: []int{2 * i, 2*i + 1},
			QueueLimit: serve.DefaultQueueLimit, Policy: c.New(), Times: times,
		}
		if layers >= 1 {
			sk := serve.NewSink(pls[i], serve.DefaultSLO, col)
			win := obs.NewWindowedSketch(obs.DefaultEps, serve.DefaultWindow, serve.DefaultWindows)
			sk.OnServed = func(r serve.Request) { win.Add(r.End, float64(r.Latency())) }
			sk.Attach(rt)
		}
	}
	if layers >= 2 {
		col.Attach(rt)
	}
	if layers >= 3 {
		obs.NewRegistry().Attach(rt)
	}
	for _, pl := range pls {
		serve.Build(rt, pl)
	}
	if _, err := rt.Run(); err != nil {
		panic(err)
	}
}

// liveSinkCost drains every sink layering reps times, the layerings in
// turn within each round so host noise spreads over all of them, after one
// warm-up round.
func liveSinkCost(reps int) liveSinkBench {
	walls := make([][]float64, len(sinkLayers)+1)
	for round := -1; round < reps; round++ {
		for l := range walls {
			start := time.Now()
			sinkDrain(l)
			if round >= 0 {
				walls[l] = append(walls[l], time.Since(start).Seconds()*1e3)
			}
		}
	}
	stat := func(ms []float64) drainStat {
		sort.Float64s(ms)
		return drainStat{Drains: len(ms), MedianMs: ms[len(ms)/2], MinMs: ms[0], MaxMs: ms[len(ms)-1]}
	}
	b := liveSinkBench{Base: stat(walls[0])}
	prev := b.Base.MedianMs
	for i, name := range sinkLayers {
		d := stat(walls[i+1])
		b.Layers = append(b.Layers, sinkLayer{Subscriber: name, Drain: d, OverheadPct: (d.MedianMs/prev - 1) * 100})
		prev = d.MedianMs
	}
	b.TotalPct = (prev/b.Base.MedianMs - 1) * 100
	return b
}

// secsPerRun times fn averaged over reps runs after one warm-up call.
func secsPerRun(reps int, fn func()) float64 {
	fn()
	start := time.Now()
	for i := 0; i < reps; i++ {
		fn()
	}
	return time.Since(start).Seconds() / float64(reps)
}

// kernelCost measures ns/event of one workload.
func kernelCost(name string, events, reps int, fn func()) kernelBench {
	return kernelBench{Workload: name, Events: events, StepNsPerEvent: secsPerRun(reps, fn) * 1e9 / float64(events)}
}

func main() {
	var (
		out     = flag.String("o", "BENCH_sweep.json", "output JSON path ('-' for stdout)")
		seed    = flag.Int64("seed", 1, "simulation seed")
		full    = flag.Bool("full", false, "paper-scale workloads (much slower)")
		workers = flag.Int("workers", 0, "parallel worker count (0 = GOMAXPROCS or ANTHILL_WORKERS)")
	)
	flag.Parse()

	cfg := experiments.Config{Full: *full, Seed: *seed}
	parWorkers := *workers
	if parWorkers <= 0 {
		parallel.SetWorkers(0) // resolve the default
		parWorkers = parallel.Workers()
	}

	fmt.Fprintf(os.Stderr, "benchsweep: serial run (1 worker)...\n")
	serial, serialOut := timedRunAll(cfg, 1)
	fmt.Fprintf(os.Stderr, "benchsweep: serial %.1fs, %d points (%.1f points/s)\n",
		serial.WallSeconds, serial.Points, serial.PointsPerSec)
	fmt.Fprintf(os.Stderr, "benchsweep: parallel run (%d workers)...\n", parWorkers)
	par, parOut := timedRunAll(cfg, parWorkers)
	fmt.Fprintf(os.Stderr, "benchsweep: parallel %.1fs, %d points (%.1f points/s)\n",
		par.WallSeconds, par.Points, par.PointsPerSec)
	explainCfg := cfg
	explainCfg.Observe = true
	fmt.Fprintf(os.Stderr, "benchsweep: parallel+explain run (%d workers, captures attached)...\n", parWorkers)
	parExplain, _ := timedRunAll(explainCfg, parWorkers)
	fmt.Fprintf(os.Stderr, "benchsweep: parallel+explain %.1fs, %d points (%.1f points/s)\n",
		parExplain.WallSeconds, parExplain.Points, parExplain.PointsPerSec)
	fmt.Fprintf(os.Stderr, "benchsweep: serving run (open-system extra, %d workers)...\n", parWorkers)
	serving := timedExtra("serving", cfg, parWorkers)
	fmt.Fprintf(os.Stderr, "benchsweep: serving %.1fs, %d points (%.1f points/s)\n",
		serving.WallSeconds, serving.Points, serving.PointsPerSec)
	fmt.Fprintf(os.Stderr, "benchsweep: policylab run (rival-scheduler extra, %d workers)...\n", parWorkers)
	policylab := timedExtra("policylab", cfg, parWorkers)
	fmt.Fprintf(os.Stderr, "benchsweep: policylab %.1fs, %d points (%.1f points/s)\n",
		policylab.WallSeconds, policylab.Points, policylab.PointsPerSec)
	fmt.Fprintf(os.Stderr, "benchsweep: live-sink overhead (serve engine drain, one subscriber at a time)...\n")
	liveSink := liveSinkCost(15)
	for _, l := range liveSink.Layers {
		fmt.Fprintf(os.Stderr, "benchsweep: + %s: median %.1f ms (%+.1f%%)\n", l.Subscriber, l.Drain.MedianMs, l.OverheadPct)
	}
	fmt.Fprintf(os.Stderr, "benchsweep: live sink %.1f%% over the hook-free %.1f ms drain\n",
		liveSink.TotalPct, liveSink.Base.MedianMs)

	effective := parWorkers
	if mp := runtime.GOMAXPROCS(0); mp < effective {
		effective = mp
	}
	s := summary{
		GoVersion:               runtime.Version(),
		GOOS:                    runtime.GOOS,
		GOARCH:                  runtime.GOARCH,
		NumCPU:                  runtime.NumCPU(),
		GOMAXPROCS:              runtime.GOMAXPROCS(0),
		Seed:                    *seed,
		FullScale:               *full,
		Runs:                    []runResult{serial, par, parExplain, serving, policylab},
		Speedup:                 serial.WallSeconds / par.WallSeconds,
		EffectiveParallelism:    effective,
		ParallelComparisonValid: effective > 1,
		Identical:               serialOut == parOut,
		ExplainOverheadPct:      (parExplain.WallSeconds/par.WallSeconds - 1) * 100,
		LiveSink:                liveSink,
		SimAllocs: []allocResult{
			{"event_loop_step_4procs_x_1000_steps", allocsPerRun(5, eventLoopStep)},
			{"spawn_churn_step_1000_procs", allocsPerRun(5, spawnChurnStep)},
			{"message_path_step_1000_rounds", allocsPerRun(5, messagePathStep)},
		},
		KernelBench: []kernelBench{
			kernelCost("event_loop", 4000, 20, eventLoopStep),
			kernelCost("spawn_churn", 3000, 20, spawnChurnStep),
			kernelCost("message_path", 3000, 20, messagePathStep),
			queueCost("deep_queue", 5, deepQueue),
			queueCost("fixed_delays", 5, fixedDelays),
		},
		DemandRound: demandRoundCost(10),
	}
	if !s.ParallelComparisonValid {
		s.ParallelNote = "GOMAXPROCS=1: the worker pool cannot run sweeps concurrently, so parallel_speedup measures pool overhead, not machine parallelism"
		fmt.Fprintln(os.Stderr, "benchsweep: NOTE:", s.ParallelNote)
	}
	if !s.Identical {
		fmt.Fprintln(os.Stderr, "benchsweep: WARNING: parallel output differs from serial")
	}

	var w io.Writer = os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(s); err != nil {
		fmt.Fprintln(os.Stderr, "benchsweep:", err)
		os.Exit(1)
	}
	if !s.Identical {
		os.Exit(1)
	}
}
