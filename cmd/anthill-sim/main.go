// Command anthill-sim regenerates the paper's tables and figures on the
// simulated heterogeneous cluster.
//
// Usage:
//
//	anthill-sim [-exp all|table1|fig6|...] [-full] [-seed N] [-o FILE]
//	anthill-sim -exp chaos [-faults SPEC]
//	anthill-sim -exp serving [-arrivals SPEC]
//	anthill-sim -exp fig7 -trace trace.json -metrics-out metrics.json
//	anthill-sim -exp fig10 -explain -explain-out explain.json
//
// With -exp all (the default) it writes a complete EXPERIMENTS.md-style
// report; with a single experiment ID it prints just that section. -full
// switches to paper-scale workloads (26,742-tile base cases, 267,420-tile
// scaling runs); the default reduced scale preserves every qualitative
// shape and finishes in a few minutes. -faults replaces the chaos
// experiment's random intensity sweep with a scripted fault schedule (see
// the fault-spec syntax in README.md or internal/fault).
//
// -exp serving runs the open-system extension: Poisson arrivals at an
// admission-controlled gateway feeding a heterogeneous serve pool, with
// end-to-end latency percentiles (p50/p99/p999) per stream policy. It is
// an extra — not part of -exp all or its pinned digest. -arrivals replaces
// the default load sweep with a scripted arrival schedule (see the spec
// syntax in internal/arrival), e.g.
// 'poisson:rate=4000,n=800;burst:rate=1000,n=200,peak=4,period=50ms'.
//
// -trace and -metrics-out attach the observability layer (internal/obs,
// internal/trace) to a representative run of the chosen experiment and
// write a Chrome trace-event JSON file (open in ui.perfetto.dev or
// chrome://tracing) and a metrics-registry JSON dump. Both require a
// single -exp and are byte-identical across runs with the same -seed.
//
// -explain runs the same capture with the span-lineage collector
// (internal/span) attached and appends the makespan attribution — critical
// path, per-kind/device/filter breakdowns, top bottleneck buffers — to the
// report. With -exp all it instead appends a one-line makespan breakdown
// to every experiment section that supports a capture. -explain-out writes
// the machine-readable attribution artifact (requires a single -exp); like
// the other captures it is byte-identical across runs with the same -seed,
// serial or -parallel.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"

	"repro/internal/arrival"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/metrics"
	"repro/internal/parallel"
)

// Profiling state, package-level so exit can flush it: os.Exit bypasses
// defers, and several error paths terminate mid-run.
var (
	cpuProfiling  bool
	memProfileOut string
)

// finishProfiles stops an active CPU profile and writes the heap profile.
// Idempotent, so both the normal return path and exit may call it.
func finishProfiles() {
	if cpuProfiling {
		pprof.StopCPUProfile()
		cpuProfiling = false
	}
	if memProfileOut != "" {
		f, err := os.Create(memProfileOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim:", err)
		} else {
			runtime.GC() // materialize the final live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "anthill-sim:", err)
			}
			f.Close()
		}
		memProfileOut = ""
	}
}

// exit flushes any active profiles before terminating, so -cpuprofile and
// -memprofile still produce usable artifacts when a shape check fails.
func exit(code int) {
	finishProfiles()
	os.Exit(code)
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment ID to run, or 'all'")
		full     = flag.Bool("full", false, "paper-scale workloads (slower)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		out      = flag.String("o", "", "write the report to this file instead of stdout")
		list     = flag.Bool("list", false, "list experiment IDs and exit")
		jsonOut  = flag.String("json", "", "also write a machine-readable check summary to this file")
		svgDir   = flag.String("svg", "", "write each figure's curves as an SVG chart into this directory")
		par      = flag.Bool("parallel", true, "run independent sweep points on all cores (output is byte-identical to serial)")
		workers  = flag.Int("workers", 0, "sweep worker count (0 = GOMAXPROCS, or the ANTHILL_WORKERS env var)")
		faults   = flag.String("faults", "", "scripted fault schedule for -exp chaos, e.g. 'slow:node=0,at=100ms,for=500ms,x=4;crash:filter=nbia,inst=3,at=200ms'")
		arrivals = flag.String("arrivals", "", "scripted arrival schedule for -exp serving, e.g. 'poisson:rate=4000,n=800;trace:at=1ms/2ms'")
		traceOut = flag.String("trace", "", "write a Chrome trace-event JSON capture of the experiment to this file (view in ui.perfetto.dev; requires a single -exp)")
		metrOut  = flag.String("metrics-out", "", "write the experiment's metrics-registry JSON to this file (requires a single -exp)")
		explain  = flag.Bool("explain", false, "append the makespan attribution (critical path, breakdowns, bottlenecks) to the report; with -exp all, adds a breakdown line per experiment")
		explOut  = flag.String("explain-out", "", "write the makespan-attribution JSON artifact to this file (requires a single -exp)")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to this file (inspect with go tool pprof)")
		memProf  = flag.String("memprofile", "", "write an end-of-run heap profile to this file (inspect with go tool pprof)")
	)
	flag.Parse()

	if (*traceOut != "" || *metrOut != "" || *explOut != "") && *exp == "all" {
		fmt.Fprintln(os.Stderr, "anthill-sim: -trace/-metrics-out/-explain-out need a single experiment (-exp ID)")
		os.Exit(1)
	}

	if *faults != "" {
		if _, err := fault.Parse(*faults); err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim: bad -faults spec:", err)
			os.Exit(1)
		}
		if *exp != "chaos" {
			fmt.Fprintln(os.Stderr, "anthill-sim: -faults requires -exp chaos")
			os.Exit(1)
		}
	}

	if *arrivals != "" {
		if _, err := arrival.Parse(*arrivals); err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim: bad -arrivals spec:", err)
			os.Exit(1)
		}
		if *exp != "serving" {
			fmt.Fprintln(os.Stderr, "anthill-sim: -arrivals requires -exp serving")
			os.Exit(1)
		}
	}

	switch {
	case !*par:
		parallel.SetWorkers(1)
	case *workers > 0:
		parallel.SetWorkers(*workers)
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim:", err)
			os.Exit(1)
		}
		cpuProfiling = true
	}
	memProfileOut = *memProf

	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-8s %-10s %s\n", e.ID, e.PaperRef, e.Title)
		}
		for _, e := range experiments.Extras() {
			fmt.Printf("%-8s %-10s %s (extra: not part of -exp all)\n", e.ID, e.PaperRef, e.Title)
		}
		return
	}

	cfg := experiments.Config{
		Full: *full, Seed: *seed, FaultSpec: *faults, ArrivalSpec: *arrivals,
		Observe: *traceOut != "" || *metrOut != "" || *explain || *explOut != "",
	}
	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim:", err)
			exit(1)
		}
		defer f.Close()
		w = f
	}

	var toRun []experiments.Experiment
	if *exp == "all" {
		toRun = experiments.All()
	} else {
		e, ok := experiments.ByID(*exp)
		if !ok {
			var ids []string
			for _, e := range experiments.All() {
				ids = append(ids, e.ID)
			}
			for _, e := range experiments.Extras() {
				ids = append(ids, e.ID)
			}
			fmt.Fprintf(os.Stderr, "anthill-sim: unknown experiment %q (have: %s)\n",
				*exp, strings.Join(ids, ", "))
			exit(1)
		}
		toRun = []experiments.Experiment{e}
	}

	if *exp == "all" {
		fmt.Fprint(w, experiments.Preamble(cfg))
	}
	failed := 0
	var summaries []jsonReport
	var capture *experiments.ObsCapture
	for _, rep := range experiments.RunMany(cfg, toRun) {
		if rep.Obs != nil {
			capture = rep.Obs
		}
		fmt.Fprint(w, rep.Render())
		js := jsonReport{ID: rep.ID, Title: rep.Title, PaperRef: rep.PaperRef, Passed: rep.Passed()}
		for _, c := range rep.Checks {
			js.Checks = append(js.Checks, jsonCheck{Name: c.Name, Pass: c.Pass, Detail: c.Detail})
			if !c.Pass {
				failed++
			}
		}
		summaries = append(summaries, js)
		if *svgDir != "" && len(rep.Series) > 0 {
			if err := os.MkdirAll(*svgDir, 0o755); err != nil {
				fmt.Fprintln(os.Stderr, "anthill-sim:", err)
				exit(1)
			}
			svg := metrics.RenderSVG(fmt.Sprintf("%s — %s", rep.PaperRef, rep.Title),
				rep.Series, 760, 420)
			path := filepath.Join(*svgDir, rep.ID+".svg")
			if err := os.WriteFile(path, []byte(svg), 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "anthill-sim:", err)
				exit(1)
			}
		}
	}
	if cfg.Observe && *exp != "all" {
		if capture == nil {
			fmt.Fprintf(os.Stderr, "anthill-sim: experiment %q has no observability capture\n", *exp)
			exit(1)
		}
		if *explain {
			fmt.Fprint(w, capture.ExplainText)
		}
		if *traceOut != "" {
			if err := os.WriteFile(*traceOut, capture.Trace, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "anthill-sim:", err)
				exit(1)
			}
		}
		if *metrOut != "" {
			if err := os.WriteFile(*metrOut, capture.Metrics, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "anthill-sim:", err)
				exit(1)
			}
		}
		if *explOut != "" {
			if err := os.WriteFile(*explOut, capture.Explain, 0o644); err != nil {
				fmt.Fprintln(os.Stderr, "anthill-sim:", err)
				exit(1)
			}
		}
	}
	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim:", err)
			exit(1)
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(summaries); err != nil {
			fmt.Fprintln(os.Stderr, "anthill-sim:", err)
			exit(1)
		}
		f.Close()
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "anthill-sim: %d shape check(s) failed\n", failed)
		exit(2)
	}
	finishProfiles()
}

// jsonReport is the machine-readable form of one experiment's outcome.
type jsonReport struct {
	ID       string      `json:"id"`
	Title    string      `json:"title"`
	PaperRef string      `json:"paper_ref"`
	Passed   bool        `json:"passed"`
	Checks   []jsonCheck `json:"checks"`
}

type jsonCheck struct {
	Name   string `json:"name"`
	Pass   bool   `json:"pass"`
	Detail string `json:"detail"`
}
