package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"time"

	"repro/internal/arrival"
	"repro/internal/serve"
	"repro/internal/sim"
)

// The serve workload runs internal/serve's engine with its three policy
// pipelines (DDFCFS, DDWRR, ODDS) on one shared bursty schedule: trough
// burstTrough/s, crest twice that, period 1 virtual second. That averages
// 0.9x serve.Capacity and sheds at the crest, open loop in virtual time.
const (
	burstTrough = 3200
	burstPeak   = 2
	burstPeriod = sim.Time(1)
	// drainSlack puts the final frame this far past the last arrival, so a
	// drained and a paced execution of one schedule end on the same frame.
	drainSlack = sim.Time(10)

	// serve_live replays liveArrivals of the schedule, and serve_drain's
	// traced run the first liveArrivals of its own, as cmd/anthill-serve
	// paces them with its defaults: 100x dilation, a 50 ms wall tick (one
	// Frame every 0.5 ms virtual, about a thousand ticks), and a /metrics
	// render every 300 ticks (Prometheus's 15 s). The clock is a
	// sim.ManualClock, so the replay is CPU-bound and deterministic, and the
	// loop is closed as in Engine.Pace: the next tick starts when the
	// previous one ends.
	liveArrivals    = 2500
	liveDilation    = 100
	liveTick        = sim.Time(0.05)
	liveScrapeEvery = 300
)

// pinnedFrame is the sha256 of each serve workload's final frame (JSON) of
// execution 0 for seed 1 at full scale.
var pinnedFrame = map[string]string{
	"serve_drain": "d13f03d98f9e70142f11db8811bc66626c48fe4782e76f413bd584c0059527d9",
	"serve_live":  "12eb0021b41d55a86dea39b9dc46348bb2a4cb6b0be85b38e51b4f054fd018e1",
}

type serveWorkload struct {
	arrivals int
	// paced replays every execution tick by tick as anthill-serve does,
	// instead of draining it with one Advance.
	paced  bool
	pinned string
	// executions counts the timed executions so far; execution k replays
	// schedule k of the run's seed. Warm-up i of a set-up replays schedule
	// -1-i, so set-ups never change what the timed executions replay.
	executions, warmups int
	// first is the final-frame digest of execution 0, which the traced
	// execution replays and must reproduce.
	first string
}

func schedule(seed int64, n int) []sim.Time {
	s := arrival.Schedule{Procs: []arrival.Proc{{
		Kind: arrival.Burst, Rate: burstTrough, N: n, Peak: burstPeak, Period: burstPeriod,
	}}}
	return s.Times(seed)
}

// scheduleSeed is the arrival seed of a run's k-th execution: the run's seed
// first, then seeds derived from it. Each execution draws a fresh schedule
// from the same process, so a run's medians cover many schedules rather
// than the luck of one, and runs on different seeds agree.
func scheduleSeed(seed int64, k int) int64 { return seed + int64(k)<<32 }

func (w *serveWorkload) size(b *bench) int { return max(1, int(float64(w.arrivals)*b.scale)) }

// execution is one serve execution: the engine, its final frame, and for a
// paced replay the host seconds of each tick.
type execution struct {
	e     *serve.Engine
	final serve.Frame
	ticks []float64
	// rebuilds counts frames where a pipe's worst violator changed, which
	// makes the next Frame rebuild its span lineage.
	rebuilds int
}

// execute builds an engine over times and times its run: one Advance, or
// with paced the replay anthill-serve does.
func (w *serveWorkload) execute(b *bench, times []sim.Time, paced bool) (*execution, sample, error) {
	sp := b.tr.begin("serve.New")
	e, err := serve.New(serve.Config{Seed: b.seed, Times: times})
	b.tr.end(sp)
	if err != nil {
		return nil, sample{}, fmt.Errorf("serve.New: %w", err)
	}
	r := &execution{e: e}
	end := times[len(times)-1] + drainSlack
	var s sample
	if paced {
		s, err = measure(func() error { return r.pace(b) })
	} else {
		s, err = measure(func() error {
			sp := b.tr.begin("Engine.Advance")
			done, err := e.Advance(end)
			b.tr.end(sp)
			if err == nil && !done {
				err = fmt.Errorf("engine not drained at virtual %v s", end)
			}
			return err
		})
	}
	if err != nil {
		return nil, sample{}, err
	}
	if _, err := e.Advance(end); err != nil {
		return nil, sample{}, err
	}
	sp = b.tr.begin("Engine.Frame")
	r.final = e.Frame()
	b.tr.end(sp)
	return r, s, nil
}

// pace replays the engine tick by tick until it drains.
func (r *execution) pace(b *bench) error {
	clk := &sim.ManualClock{}
	var prom bytes.Buffer // reused across renders, as a scrape handler would
	worst := map[string]uint64{}
	for n := 1; ; n++ {
		sp := b.tr.begin("tick")
		t0 := time.Now()
		st := b.tr.begin("Engine.Step")
		done, err := r.e.Step(clk.Now(), liveDilation)
		b.tr.end(st)
		if err != nil {
			return err
		}
		fr := b.tr.begin("Engine.Frame")
		f := r.e.Frame()
		b.tr.end(fr)
		for _, p := range f.Pipes {
			if p.Worst != nil && p.Worst.Task != worst[p.Policy] {
				worst[p.Policy] = p.Worst.Task
				r.rebuilds++
			}
		}
		if n%liveScrapeEvery == 0 {
			pr := b.tr.begin("Engine.WritePromText")
			prom.Reset()
			err = r.e.WritePromText(&prom)
			b.tr.end(pr)
			if err != nil {
				return err
			}
		}
		r.ticks = append(r.ticks, time.Since(t0).Seconds())
		b.tr.end(sp)
		if done {
			return nil
		}
		clk.Sleep(liveTick)
	}
}

// check requires, per pipe at drain, every arrival offered, offered =
// accepted + shed and served = accepted; and for execution 0 on seed 1 at
// full scale the pinned final frame.
func (w *serveWorkload) check(b *bench, k, offered int, f serve.Frame) (string, error) {
	if !f.Done {
		return "", errors.New("final frame not drained")
	}
	if len(f.Pipes) != 3 {
		return "", fmt.Errorf("final frame has %d pipes, want 3", len(f.Pipes))
	}
	for _, p := range f.Pipes {
		if p.Offered != offered || p.Offered != p.Accepted+p.Shed || p.Served != p.Accepted {
			return "", fmt.Errorf("%s: offered %d of %d, accepted %d, shed %d, served %d",
				p.Policy, p.Offered, offered, p.Accepted, p.Shed, p.Served)
		}
	}
	d := digest(f)
	if b.seed == 1 && b.scale == 1 && k == 0 && offered == w.arrivals && d != w.pinned {
		return d, fmt.Errorf("seed 1: final frame digest %s, pinned %s", d, w.pinned)
	}
	return d, nil
}

func digest(f serve.Frame) string {
	data, err := json.Marshal(f)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encoding frame: %v", err))
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

func (w *serveWorkload) setup(b *bench) error {
	k := -1 - w.warmups
	w.warmups++
	_, err := w.runChecked(b, k, schedule(scheduleSeed(b.seed, k), max(1, int(float64(w.size(b))*warmupScale))))
	return err
}

func (w *serveWorkload) iterate(b *bench) (sample, error) {
	k := w.executions
	w.executions++
	return w.runChecked(b, k, schedule(scheduleSeed(b.seed, k), w.size(b)))
}

// runChecked runs schedule k to its end and checks its final frame.
func (w *serveWorkload) runChecked(b *bench, k int, times []sim.Time) (sample, error) {
	r, s, err := w.execute(b, times, w.paced)
	if err != nil {
		return sample{}, err
	}
	d, err := w.check(b, k, len(times), r.final)
	if k == 0 {
		w.first = d
	}
	return s, err
}

func (w *serveWorkload) layers(b *bench, untraced float64, m map[string]float64) {
	times := schedule(scheduleSeed(b.seed, 0), w.size(b))

	// The traced execution: spans around every engine call.
	stop := sampleHeap()
	r, s, err := w.execute(b, times, w.paced)
	m["go.heap_peak_mb"] = stop()
	if err == nil {
		var d string
		d, err = w.check(b, 0, len(times), r.final)
		if err == nil && d != w.first {
			err = fmt.Errorf("traced execution moved the simulation: final frame %s, untraced %s", d, w.first)
		}
	}
	b.op(err)
	if r != nil {
		m["trace.overhead_s"] = s.wall - untraced
		w.traced(b, r, untraced, m)
	}

	// The live read path: the traced execution itself on serve_live, else a
	// traced paced replay of the schedule's start.
	live := r
	if !w.paced {
		head := times[:min(len(times), liveArrivals)]
		live, _, err = w.execute(b, head, true)
		if err == nil {
			_, err = w.check(b, -1, len(head), live.final)
		}
		b.op(err)
	}
	if live != nil {
		w.pacedMetrics(b, live, m)
	}

	// The live sink's price: the same drain with the sink off and on. The
	// sink-on engine is then kept alive to weigh its per-request state.
	off, _, errOff := w.drain(b, times, true)
	b.op(errOff)
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	on, e, errOn := w.drain(b, times, false)
	b.op(errOn)
	if errOff == nil && errOn == nil {
		m["serve.sink_share"] = 1 - off/on
		m["obs.capture_overhead_s"] = on - off
		runtime.GC()
		runtime.ReadMemStats(&ms)
		accepted := 0
		for _, p := range e.Frame().Pipes {
			accepted += p.Accepted
		}
		m["serve.heap_bytes_per_request"] = ratio(float64(ms.HeapAlloc)-float64(base), float64(accepted))
		runtime.KeepAlive(e)
	}

	n := len(times)
	m["arrival.schedule_ms"] = medianOf(5, func() { times = schedule(scheduleSeed(b.seed, 0), n) }) * 1e3
	m["serve.new_ms"] = medianOf(5, func() {
		if _, err := serve.New(serve.Config{Seed: b.seed, Times: times}); err != nil {
			panic(err) // New already succeeded on these instants
		}
	}) * 1e3
}

// paced fills the metrics of the traced paced replay r: per-tick host time
// of the whole tick and of its Step and Frame calls, the /metrics renders,
// and how often the worst violator's lineage had to be rebuilt.
func (w *serveWorkload) pacedMetrics(b *bench, r *execution, m map[string]float64) {
	ms := func(name string, q float64) float64 { return quantile(b.tr.durations(name), q) * 1e3 }
	m["serve.advance_ms_p50"] = ms("Engine.Step", 0.5)
	m["serve.advance_ms_p99"] = ms("Engine.Step", 0.99)
	m["serve.frame_ms_p50"] = ms("Engine.Frame", 0.5)
	m["serve.frame_ms_p99"] = ms("Engine.Frame", 0.99)
	m["obs.prom_ms_p50"] = ms("Engine.WritePromText", 0.5)
	m["span.lineage_rebuilds"] = float64(r.rebuilds)
	m["serve.ticks"] = float64(len(r.ticks))
	over := 0
	for _, t := range r.ticks {
		if t > float64(liveTick) {
			over++
		}
	}
	m["serve.ticks_over_budget"] = float64(over)
	m["serve.tick_p50_ms"] = quantile(r.ticks, 0.5) * 1e3
	m["serve.tick_p99_ms"] = quantile(r.ticks, 0.99) * 1e3
}

// traced fills the metrics of the traced drain r.
func (w *serveWorkload) traced(b *bench, r *execution, untraced float64, m map[string]float64) {
	var buf bytes.Buffer
	sp := b.tr.begin("Engine.WritePromText")
	if err := r.e.WritePromText(&buf); err != nil {
		b.op(err)
	}
	b.tr.end(sp)
	m["obs.prom_bytes"] = float64(buf.Len())

	// The engine's runtime is private: read the core and xfer counts from
	// its /metrics page, and the admission outcomes from the final frame.
	page := buf.String()
	issued := promSum(page, "anthill_demand_total", `event="issued"`)
	data := promSum(page, "anthill_demand_total", `event="data"`)
	m["core.demand_issued"] = issued
	m["core.demand_empty"] = promSum(page, "anthill_demand_total", `event="empty"`)
	m["core.demand_useful_ratio"] = ratio(data, issued)
	m["core.sends"] = promSum(page, "anthill_stream_sends_total", "")
	m["xfer.h2d_spans"] = promSum(page, "anthill_xfer_spans_total", `kind="h2d"`)
	m["xfer.kernel_spans"] = promSum(page, "anthill_xfer_spans_total", `kind="kernel"`)
	m["xfer.d2h_spans"] = promSum(page, "anthill_xfer_spans_total", `kind="d2h"`)
	m["core.buffers_cpu"] = promSum(page, "anthill_events_processed_total", `dev="CPU"`)
	m["core.buffers_gpu"] = promSum(page, "anthill_events_processed_total", `dev="GPU"`)
	var offered, accepted, shed, served, violations int
	for _, p := range r.final.Pipes {
		offered += p.Offered
		accepted += p.Accepted
		shed += p.Shed
		served += p.Served
		violations += p.Violations
	}
	events := promSum(page, "anthill_demand_total", "") + m["core.sends"] +
		promSum(page, "anthill_stream_emits_total", "") + promSum(page, "anthill_stream_delivers_total", "") +
		m["core.buffers_cpu"] + m["core.buffers_gpu"] +
		m["xfer.h2d_spans"] + m["xfer.kernel_spans"] + m["xfer.d2h_spans"] + float64(offered)
	m["sim.host_ns_per_hook_event"] = ratio(untraced*1e9, events)
	m["arrival.offered"] = float64(offered)
	m["core.admit_accepted"] = float64(accepted)
	m["core.admit_shed"] = float64(shed)
	m["serve.served"] = float64(served)
	m["serve.slo_violations"] = float64(violations)
	m["sim.virtual_s"] = r.final.VirtualS
}

// drain times one untraced drain of times with the sink on or off and
// returns its wall seconds and engine.
func (w *serveWorkload) drain(b *bench, times []sim.Time, disableSink bool) (float64, *serve.Engine, error) {
	e, err := serve.New(serve.Config{Seed: b.seed, Times: times, DisableSink: disableSink})
	if err != nil {
		return 0, nil, fmt.Errorf("serve.New: %w", err)
	}
	end := times[len(times)-1] + drainSlack
	s, err := measure(func() error {
		done, err := e.Advance(end)
		if err == nil && !done {
			err = fmt.Errorf("engine not drained at virtual %v s", end)
		}
		return err
	})
	return s.wall, e, err
}

// promSum adds up the samples of one family in a Prometheus text page,
// keeping the series whose labels contain label ("" keeps all).
func promSum(page, family, label string) float64 {
	var sum float64
	for _, line := range strings.Split(page, "\n") {
		rest, ok := strings.CutPrefix(line, family)
		if !ok || rest == "" || (rest[0] != '{' && rest[0] != ' ') || !strings.Contains(rest, label) {
			continue
		}
		if v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64); err == nil {
			sum += v
		}
	}
	return sum
}
