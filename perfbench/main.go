// Command perfbench is the repository's benchmark. One invocation runs one
// named workload of the simulator in a single process: it sets the workload
// up several times, runs timed executions for the requested number of
// seconds, checks the output of every execution, and prints one JSON line
// with the end-to-end metrics. With --trace 1 it runs the same timed phase,
// then one traced execution plus the layer probes, and prints the per-layer
// metrics instead (metrics.go describes each one).
//
// BENCHMARK.json at the repository root lists the workloads and metrics;
// perfbench/run.py builds this program from source and runs it:
//
//	python3 perfbench/run.py --workload nbia_odds --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

const (
	// setupReps is how many times a run sets its workload up; setup_s is
	// the median. Building the inputs and engine alone takes well under a
	// millisecond for NBIA and a few for serve, mostly timer and scheduler
	// jitter, so each set-up ends with one untimed warm-up execution at
	// warmupScale of the full size: it is what makes the timed phase steady
	// (code paged in, heap and GC pacer near their working size), and it
	// makes set-up long enough to time. The set-ups alternate with the first
	// timed executions, so that a burst of load from other tenants of the
	// host lands on a few of them, not all.
	setupReps   = 11
	warmupScale = 0.25
	mb          = 1 << 20
)

// A workload is one set of simulator inputs, run the same way every time.
type workload interface {
	// setup does what a user pays before each run: build the inputs and the
	// engine, then run the warm-up execution.
	setup(b *bench) error
	// iterate builds a fresh execution, times its run and checks its
	// output. A zero sample means the run did not complete.
	iterate(b *bench) (sample, error)
	// layers runs the traced execution and the layer probes and fills in
	// the workload's per-layer metrics. untraced is the median wall time of
	// the timed phase.
	layers(b *bench, untraced float64, m map[string]float64)
}

var workloadNames = []string{"nbia_odds", "nbia_ddwrr", "serve_drain", "serve_live"}

// newWorkload returns a fresh instance of the named workload, or nil.
func newWorkload(name string) workload {
	switch name {
	case "nbia_odds":
		return &nbiaWorkload{policy: odds, tiles: 26742, pinned: pinnedMakespan[name]}
	case "nbia_ddwrr":
		return &nbiaWorkload{policy: ddwrr, tiles: 700, pinned: pinnedMakespan[name]}
	case "serve_drain":
		return &serveWorkload{arrivals: 6000, pinned: pinnedFrame[name]}
	case "serve_live":
		return &serveWorkload{arrivals: liveArrivals, paced: true, pinned: pinnedFrame[name]}
	}
	return nil
}

// bench is the state of one run.
type bench struct {
	workload string
	seed     int64
	// scale multiplies the workload's size: 1 in benchmark runs, small in
	// the program's own tests. Pinned outputs are checked at scale 1 only.
	scale   float64
	seconds float64
	// tr records spans; nil outside the traced execution.
	tr *tracer

	attempted, failed int
	setups            []float64
	samples           []sample
	// missing lists metrics that apply to the workload but were not
	// measured.
	missing []string
}

// op records one attempted operation and, when err is set, its failure.
func (b *bench) op(err error) {
	b.attempted++
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", b.workload, err)
	}
}

// run sets the workload up, runs the timed phase and returns the result:
// the end-to-end metrics, or with a tracer the per-layer metrics.
func (b *bench) run(w workload) result {
	tr := b.tr
	b.tr = nil // set-up and the timed phase always run untraced
	start := time.Now()
	for n := 0; n < setupReps || time.Since(start).Seconds() < b.seconds; n++ {
		if n < setupReps {
			runtime.GC()
			t0 := time.Now()
			err := w.setup(b)
			b.setups = append(b.setups, time.Since(t0).Seconds())
			b.op(err)
		}
		runtime.GC()
		if err := resetPeakRSS(); err != nil {
			b.op(err)
		}
		s, err := w.iterate(b)
		b.op(err)
		if s.wall > 0 {
			s.rssMB = peakRSSMB()
			b.samples = append(b.samples, s)
		}
	}
	walls := b.field(func(s sample) float64 { return s.wall })
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up %s s; timed executions %s s, CPU %s s, peak RSS %s MB\n",
		b.workload, b.seed, formatAll(b.setups), formatAll(walls),
		formatAll(b.field(func(s sample) float64 { return s.cpu })), formatAll(b.field(func(s sample) float64 { return s.rssMB })))
	if tr == nil {
		return b.result(endToEndSpecs, b.endToEnd())
	}
	b.tr = tr
	m := map[string]float64{
		"go.gc_cycles":         median(b.field(func(s sample) float64 { return float64(s.gcs) })),
		"go.gc_pause_ms":       median(b.field(func(s sample) float64 { return float64(s.pauseNs) / 1e6 })),
		"sim.message_path_ns":  messagePathNs(),
		"policy.pop_ranked_ns": popRankedNs(),
		"estimator.speedup_ns": speedupNs(b.seed),
	}
	w.layers(b, median(walls), m)
	return b.result(perLayerSpecs, m)
}

// endToEnd computes the end-to-end metrics of the timed phase: medians over
// its executions, and the median set-up. peak_rss_mb is a median too, not
// the peak of the whole process: on serve_live a few executions in ten
// overshoot to twice the usual peak, depending on where a GC cycle falls, so
// a whole-run peak read 19 or 38 MB at random.
func (b *bench) endToEnd() map[string]float64 {
	return map[string]float64{
		"wall_s":      median(b.leastInterruptedWalls()),
		"cpu_s":       median(b.field(func(s sample) float64 { return s.cpu })),
		"setup_s":     median(b.setups),
		"peak_rss_mb": median(b.field(func(s sample) float64 { return s.rssMB })),
		"alloc_count": median(b.field(func(s sample) float64 { return float64(s.mallocs) })),
		"alloc_mb":    median(b.field(func(s sample) float64 { return float64(s.bytes) / mb })),
	}
}

// leastInterruptedWalls returns the wall times of the executions whose ratio
// of wall to CPU time is within 5% of the run's lowest. The program runs on
// one P, so an execution's wall time exceeds its CPU time only while the
// host runs something else; other tenants of a shared host take the CPU
// away for seconds at a time, and on a busy host most of a run's executions
// are hit. Stolen time is not counted as CPU time, so the CPU time of the
// same executions keeps to its plain median.
func (b *bench) leastInterruptedWalls() []float64 {
	least := math.Inf(1)
	for _, s := range b.samples {
		least = min(least, s.wall/s.cpu)
	}
	var out []float64
	for _, s := range b.samples {
		if s.wall/s.cpu <= 1.05*least {
			out = append(out, s.wall)
		}
	}
	return out
}

// field extracts one figure from every timed execution.
func (b *bench) field(f func(sample) float64) []float64 {
	out := make([]float64, len(b.samples))
	for i, s := range b.samples {
		out[i] = f(s)
	}
	return out
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON line a run prints last.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result assembles the printed metrics: every spec, 0 for the metrics that
// do not apply to this workload.
func (b *bench) result(specs []metricSpec, m map[string]float64) result {
	out := map[string]metric{}
	for _, s := range specs {
		v, ok := m[s.name]
		if !ok && s.appliesTo(b.workload) {
			b.missing = append(b.missing, s.name)
			b.op(fmt.Errorf("metric %s was not measured", s.name))
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			b.op(fmt.Errorf("metric %s is %v", s.name, v))
			v = 0
		}
		out[s.name] = metric{Value: v, Unit: s.unit}
	}
	return result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: out}
}

// sample is what the benchmark measures around one timed call.
type sample struct {
	wall, cpu      float64 // seconds
	mallocs, bytes uint64  // Go heap objects and bytes allocated
	gcs            uint32
	pauseNs        uint64
	rssMB          float64 // peak resident set of the process during the execution
}

// measure times fn: host wall and CPU time (user+system of every thread of
// the process, so GC work on another core counts) and the Go heap
// allocations it made.
func measure(fn func() error) (sample, error) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	c0 := cpuSeconds()
	t0 := time.Now()
	err := fn()
	wall := time.Since(t0).Seconds()
	c1 := cpuSeconds()
	runtime.ReadMemStats(&m1)
	return sample{
		wall: wall, cpu: c1 - c0,
		mallocs: m1.Mallocs - m0.Mallocs, bytes: m1.TotalAlloc - m0.TotalAlloc,
		gcs: m1.NumGC - m0.NumGC, pauseNs: m1.PauseTotalNs - m0.PauseTotalNs,
	}, err
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("perfbench: getrusage: %v", err))
	}
	return ru
}

func cpuSeconds() float64 {
	ru := rusage()
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// peakRSSMB is the process's peak resident set since the last resetPeakRSS
// (Linux reports ru_maxrss in KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// resetPeakRSS sets the process's peak resident set back to its current
// resident set (Linux 4.0 and later), so that each execution's peak can be
// read on its own.
func resetPeakRSS() error {
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("resetting the peak resident set: %w", err)
	}
	return nil
}

// median returns the median of xs, 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating linearly between
// closest ranks; 0 for none.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// medianOf times fn reps times and returns the median in seconds.
func medianOf(reps int, fn func()) float64 {
	ts := make([]float64, reps)
	for i := range ts {
		t0 := time.Now()
		fn()
		ts[i] = time.Since(t0).Seconds()
	}
	return median(ts)
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func formatAll(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f", x)
	}
	return strings.Join(parts, " ")
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run: "+strings.Join(workloadNames, ", "))
		seed    = flag.Int64("seed", 1, "workload seed; every input derives from it")
		seconds = flag.Float64("seconds", 20, "length of the timed phase, in seconds")
		trace   = flag.Int("trace", 0, "1 runs traced and prints the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("out", filepath.Join(".bench_build", "perfbench"), "directory a traced run writes its spans to")
	)
	flag.Parse()
	w := newWorkload(*name)
	if w == nil || flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S --trace {0,1}\n",
			strings.Join(workloadNames, ","))
		os.Exit(2)
	}
	// Every workload is a single-goroutine simulation. With one P the Go
	// runtime has no idle P on which to run idle-priority GC mark workers,
	// whose CPU time would otherwise depend on how long each mark phase
	// happens to last; one P roughly halved the spread of wall_s and cpu_s
	// across runs.
	runtime.GOMAXPROCS(1)
	b := &bench{workload: *name, seed: *seed, scale: 1, seconds: *seconds}
	if *trace == 1 {
		b.tr = newTracer()
	}
	res := b.run(w)
	if *trace == 1 {
		path := filepath.Join(*out, fmt.Sprintf("spans-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
		} else {
			fmt.Fprintf(os.Stderr, "perfbench: spans written to %s; self time by span name:\n%s", path, b.tr.summary())
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}
