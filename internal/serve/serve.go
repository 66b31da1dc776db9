// Package serve is the open-system serving pipeline (arrivals ->
// admission-controlled gateway -> heterogeneous CPU/GPU serve pool) and the
// live-observability engine behind cmd/anthill-serve. Build and Sink
// (pipeline.go) construct and measure one pipeline; the engine, the
// serving and policylab experiments and the serving capture all use them.
//
// The Engine builds one shared simulation holding an independent pipeline
// per stream policy, each on a private two-node pool, then advances the virtual
// clock in step with an external clock at a configurable time-dilation
// factor. While the simulation runs, the engine exposes thread-safe views:
// registry snapshots rendered as Prometheus text for /metrics, JSON frames
// with sliding-window latency percentiles for the SSE stream, and a bounded
// JSONL ring of shed/SLO-violation events.
//
// Determinism boundary: everything inside the simulation — arrival
// instants, admissions, service order, latencies — is a pure function of
// (seed, schedule, policies), exactly as in the batch experiments; only
// *when* the outside world looks at it (which wall instant maps to which
// virtual instant) is nondeterministic. Driving the same engine with a
// ManualClock therefore replays byte-identical /metrics output, the
// property the determinism tests pin.
package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"sync"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
)

const (
	// DefaultSLO is the end-to-end latency objective requests are audited
	// against.
	DefaultSLO = 5 * sim.Millisecond
	// DefaultQueueLimit bounds each gateway's send queue.
	DefaultQueueLimit = 32
	// DefaultWindow and DefaultWindows size the sliding percentile window:
	// 8 windows of 25 ms = percentiles over the last 200 ms of virtual time.
	DefaultWindow  = 25 * sim.Millisecond
	DefaultWindows = 8
	// DefaultEventCap bounds the JSONL event ring.
	DefaultEventCap = 4096
)

// PolicyNames are the recognized -policies values, in canonical order: the
// paper's stream policies (policy.Paper), lower-cased.
var PolicyNames = func() []string {
	var names []string
	for _, c := range policy.Paper() {
		names = append(names, strings.ToLower(c.Name))
	}
	return names
}()

// Config parameterizes an Engine. Zero values take the defaults above;
// Times is required.
type Config struct {
	Seed       int64
	Policies   []string   // subset of PolicyNames, case-insensitive; nil = all
	Times      []sim.Time // arrival instants, shared by every pipeline
	SLO        sim.Time
	QueueLimit int
	Window     sim.Time
	Windows    int
	EventCap   int
	// DisableSink skips attaching the live sink (engine hook bus, obs
	// registry, span collector), leaving the simulation hook-free: frames
	// and /metrics stay empty. Benchmarks use it to price the sink: a
	// drain with the sink on versus off on an otherwise identical engine.
	DisableSink bool
}

// validate rejects malformed values and fills in the defaults.
func (c *Config) validate() error {
	if len(c.Times) == 0 {
		return fmt.Errorf("serve: no arrival instants")
	}
	switch {
	case !finiteNonNegative(c.SLO):
		return fmt.Errorf("serve: SLO %v is not a finite non-negative duration", c.SLO)
	case c.QueueLimit < 0:
		return fmt.Errorf("serve: negative queue limit %d", c.QueueLimit)
	case !finiteNonNegative(c.Window):
		return fmt.Errorf("serve: window %v is not a finite non-negative duration", c.Window)
	case c.Windows < 0:
		return fmt.Errorf("serve: negative window count %d", c.Windows)
	case c.EventCap < 0:
		return fmt.Errorf("serve: negative event cap %d", c.EventCap)
	}
	if len(c.Policies) == 0 {
		c.Policies = PolicyNames
	}
	if c.SLO == 0 {
		c.SLO = DefaultSLO
	}
	if c.QueueLimit == 0 {
		c.QueueLimit = DefaultQueueLimit
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	if c.Windows == 0 {
		c.Windows = DefaultWindows
	}
	if c.EventCap == 0 {
		c.EventCap = DefaultEventCap
	}
	return nil
}

// finiteNonNegative reports whether d is a usable duration: not negative,
// not NaN (which every comparison would silently let through), not +Inf.
func finiteNonNegative(d sim.Time) bool {
	return d >= 0 && !math.IsInf(float64(d), 1)
}

// pipe is the live state of one policy's pipeline: its sink plus the
// engine's sliding-window sketch.
type pipe struct {
	name  string
	pl    Pipeline
	stats *arrival.Stats
	sink  *Sink
	win   *obs.WindowedSketch
}

// Event is one entry of the bounded JSONL stream: an admission shed or an
// SLO violation, stamped with virtual time.
type Event struct {
	At        float64 `json:"at"`
	Policy    string  `json:"policy"`
	Type      string  `json:"type"` // "shed" | "slo_violation"
	Task      uint64  `json:"task"`
	LatencyMS float64 `json:"latency_ms,omitempty"`
}

// Engine drives the multi-policy serving simulation and serves consistent
// views of it. All methods are safe for concurrent use; the simulation
// itself only advances inside Advance.
type Engine struct {
	cfg Config

	mu    sync.Mutex
	k     *sim.Kernel
	rt    *core.Runtime
	reg   *obs.Registry
	col   *span.Collector
	pipes []*pipe
	// horizon is the furthest virtual instant Advance has been asked to
	// reach — the engine's notion of "now". The kernel's own clock lags it
	// at the last dispatched event, so views use the horizon instead.
	horizon sim.Time
	ring    []Event
	next    int // ring write cursor
	wrap    bool
	done    bool
	err     error
}

// New builds the engine: one kernel, one runtime, an isolated two-node
// pool and gateway->serve pipeline per policy, a sink per pipeline feeding
// the engine's live state, a span collector for lineage, and an obs
// registry for /metrics. The runtime is started; call Advance to make
// progress.
func New(cfg Config) (*Engine, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ctors := make([]policy.Constructor, len(cfg.Policies))
	for i, name := range cfg.Policies {
		c, err := lookup(name)
		if err != nil {
			return nil, err
		}
		for _, prev := range ctors[:i] {
			if prev.Name == c.Name {
				return nil, fmt.Errorf("serve: policy %q listed twice", name)
			}
		}
		ctors[i] = c
	}

	e := &Engine{cfg: cfg, k: sim.NewKernel(cfg.Seed), ring: make([]Event, 0, cfg.EventCap)}
	var specs []hw.NodeSpec
	for range ctors {
		specs = append(specs, Pool()...)
	}
	cl := hw.NewCluster(e.k, specs, nil)
	for _, d := range cl.Devices() {
		d.SetRecordIntervals(false) // nothing here reads busy intervals
	}
	e.rt = core.New(cl, nil)
	if !cfg.DisableSink {
		e.col = span.NewCollector()
	}
	for i, c := range ctors {
		name := strings.ToLower(c.Name)
		p := &pipe{
			name: name,
			pl: Pipeline{
				Suffix: name, Gateway: 2 * i, Placement: []int{2 * i, 2*i + 1},
				QueueLimit: cfg.QueueLimit, Policy: c.New(), Times: cfg.Times,
			},
			win: obs.NewWindowedSketch(obs.DefaultEps, cfg.Window, cfg.Windows),
		}
		p.sink = NewSink(p.pl, cfg.SLO, e.col)
		p.sink.OnShed = func(r core.AdmitRecord) {
			e.record(Event{At: float64(r.At), Policy: p.name, Type: "shed", Task: r.TaskID})
		}
		p.sink.OnServed = func(r Request) {
			lat := r.Latency()
			p.win.Add(r.End, float64(lat))
			if lat > cfg.SLO {
				e.record(Event{At: float64(r.End), Policy: p.name, Type: "slo_violation",
					Task: r.Task, LatencyMS: float64(lat) / float64(sim.Millisecond)})
			}
		}
		e.pipes = append(e.pipes, p)
	}

	// The sinks are attached first, then the span collector and the
	// registry chain in front (later-attached subscribers fire first). Every
	// hook runs inside Advance, which holds e.mu — pipe state needs no
	// extra lock.
	if !cfg.DisableSink {
		for _, p := range e.pipes {
			p.sink.Attach(e.rt)
		}
		e.col.Attach(e.rt)
		e.reg = obs.NewRegistry()
		e.reg.Attach(e.rt)
	}

	for _, p := range e.pipes {
		p.stats = Build(e.rt, p.pl)
	}
	e.rt.Start()
	return e, nil
}

// lookup returns the paper policy named name (case-insensitive).
func lookup(name string) (policy.Constructor, error) {
	for _, c := range policy.Paper() {
		if strings.EqualFold(c.Name, name) {
			return c, nil
		}
	}
	return policy.Constructor{}, fmt.Errorf("serve: unknown policy %q (have %s)", name, strings.Join(PolicyNames, ", "))
}

// record appends to the bounded event ring, overwriting the oldest entry
// once full. Caller holds e.mu (record only runs from hooks inside Advance).
func (e *Engine) record(ev Event) {
	if len(e.ring) < cap(e.ring) {
		e.ring = append(e.ring, ev)
		return
	}
	e.ring[e.next] = ev
	e.next = (e.next + 1) % cap(e.ring)
	e.wrap = true
}

// Advance runs the simulation up to virtual time v (inclusive). It returns
// done=true once every event has drained — all arrivals injected and every
// admitted request served — after which the run's invariants have been
// validated and further calls are no-ops. A NaN or infinite v is an error
// that leaves the engine as it was; so is Step with a zero dilation.
func (e *Engine) Advance(v sim.Time) (done bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
		return e.done, fmt.Errorf("serve: Advance needs a finite virtual time, got %v", float64(v))
	}
	if v > e.horizon {
		e.horizon = v
	}
	if e.done {
		return true, e.err
	}
	kdone, kerr := e.k.AdvanceTo(v)
	if kdone {
		e.done = true
		e.err = kerr
		if e.err == nil {
			_, e.err = e.rt.Finish()
		}
	}
	return e.done, e.err
}

// Step maps a wall-clock instant to its virtual instant under the dilation
// factor (virtual = wall / dilation) and advances to it.
func (e *Engine) Step(wall sim.Time, dilation float64) (bool, error) {
	return e.Advance(wall / sim.Time(dilation))
}

// Pace drives the engine against a clock until the simulation drains: each
// iteration advances to clk.Now()/dilation, reports a frame, and sleeps one
// tick. onFrame may be nil; returning false from it stops the loop early.
// With sim.WallClock this is the live serving loop; with sim.ManualClock it
// replays the dilated schedule deterministically (Sleep advances the clock).
func (e *Engine) Pace(clk sim.Clock, dilation float64, tick sim.Time, onFrame func(Frame) bool) error {
	if dilation <= 0 {
		return fmt.Errorf("serve: dilation must be positive, got %g", dilation)
	}
	if tick <= 0 {
		return fmt.Errorf("serve: tick must be positive, got %v", tick)
	}
	for {
		done, err := e.Step(clk.Now(), dilation)
		if err != nil {
			return err
		}
		if onFrame != nil && !onFrame(e.Frame()) {
			return nil
		}
		if done {
			return nil
		}
		clk.Sleep(tick)
	}
}

// Now returns the engine's current virtual time — the horizon the caller
// has advanced to, not the (lagging) instant of the last simulated event.
func (e *Engine) Now() sim.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.horizon
}

// Done reports whether the simulation has drained, and any run error.
func (e *Engine) Done() (bool, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.done, e.err
}

// PipeFrame is one policy's slice of a frame.
type PipeFrame struct {
	Policy        string     `json:"policy"`
	Offered       int        `json:"offered"`
	Accepted      int        `json:"accepted"`
	Shed          int        `json:"shed"`
	Served        int        `json:"served"`
	Violations    int        `json:"violations"`
	QueueDepth    int        `json:"queue_depth"`
	MaxQueueDepth int        `json:"max_queue_depth"`
	WindowCount   int64      `json:"window_count"`
	P50ms         float64    `json:"p50_ms"`
	P99ms         float64    `json:"p99_ms"`
	P999ms        float64    `json:"p999_ms"`
	CumP99ms      float64    `json:"cum_p99_ms"`
	ThroughputRPS float64    `json:"throughput_rps"`
	Worst         *WorstInfo `json:"worst,omitempty"`
}

// Frame is one consistent view of every pipeline, the payload of the SSE
// stream. Percentiles are over the sliding window; CumP99ms is since boot.
type Frame struct {
	VirtualS float64     `json:"virtual_s"`
	Done     bool        `json:"done"`
	Pipes    []PipeFrame `json:"pipes"`
}

// Frame assembles the current frame. The worst violator's span lineage is
// built lazily (Sink.Worst), so steady-state frames cost no graph walks.
func (e *Engine) Frame() Frame {
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.horizon
	f := Frame{VirtualS: float64(now), Done: e.done, Pipes: make([]PipeFrame, 0, len(e.pipes))}
	ms := func(t float64) float64 { return t / float64(sim.Millisecond) }
	for _, p := range e.pipes {
		winSpan := float64(e.cfg.Window) * float64(e.cfg.Windows)
		if el := float64(now); el > 0 && el < winSpan {
			winSpan = el
		}
		win := p.win.Percentiles(now)
		rps := 0.0
		if winSpan > 0 {
			rps = float64(win.Count) / winSpan
		}
		pf := PipeFrame{
			Policy:  p.name,
			Offered: p.stats.Offered, Accepted: p.stats.Accepted, Shed: p.stats.Rejected,
			Served: p.sink.Served, Violations: p.sink.Violations,
			QueueDepth: p.sink.Depth, MaxQueueDepth: p.sink.MaxDepth,
			WindowCount:   win.Count,
			P50ms:         ms(win.P50),
			P99ms:         ms(win.P99),
			P999ms:        ms(win.P999),
			CumP99ms:      ms(p.sink.Latency.Quantile(0.99)),
			ThroughputRPS: rps,
		}
		if w, ok := p.sink.Worst(); ok {
			pf.Worst = &w
		}
		f.Pipes = append(f.Pipes, pf)
	}
	return f
}

// WritePromText renders the full /metrics payload: the obs registry
// snapshot first, then the engine's own serving families (admission
// outcomes, windowed latency quantiles, queue depths, throughput). Both
// blocks are internally sorted, so the output for a fixed virtual instant
// is byte-deterministic.
func (e *Engine) WritePromText(w io.Writer) error {
	f := e.Frame()
	if e.reg != nil {
		e.mu.Lock()
		snap := e.reg.Snapshot(sim.Time(f.VirtualS))
		e.mu.Unlock()
		if err := snap.WritePromText(w); err != nil {
			return err
		}
	}
	sort.Slice(f.Pipes, func(i, j int) bool { return f.Pipes[i].Policy < f.Pipes[j].Policy })
	var b strings.Builder
	emit := func(name, typ, help string, rows func(p PipeFrame) []string) {
		fmt.Fprintf(&b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
		for _, p := range f.Pipes {
			for _, row := range rows(p) {
				b.WriteString(row)
			}
		}
	}
	fv := func(v float64) string { return obs.FormatPromValue(v) }
	emit("anthill_serve_requests_total", "counter", "admission outcomes per policy", func(p PipeFrame) []string {
		return []string{
			fmt.Sprintf("anthill_serve_requests_total{policy=%q,outcome=\"offered\"} %d\n", p.Policy, p.Offered),
			fmt.Sprintf("anthill_serve_requests_total{policy=%q,outcome=\"accepted\"} %d\n", p.Policy, p.Accepted),
			fmt.Sprintf("anthill_serve_requests_total{policy=%q,outcome=\"shed\"} %d\n", p.Policy, p.Shed),
		}
	})
	emit("anthill_serve_served_total", "counter", "requests served per policy", func(p PipeFrame) []string {
		return []string{fmt.Sprintf("anthill_serve_served_total{policy=%q} %d\n", p.Policy, p.Served)}
	})
	emit("anthill_serve_slo_violations_total", "counter", "requests past the SLO per policy", func(p PipeFrame) []string {
		return []string{fmt.Sprintf("anthill_serve_slo_violations_total{policy=%q} %d\n", p.Policy, p.Violations)}
	})
	emit("anthill_serve_latency_window_seconds", "gauge", "sliding-window latency quantiles per policy", func(p PipeFrame) []string {
		s := func(q string, v float64) string {
			return fmt.Sprintf("anthill_serve_latency_window_seconds{policy=%q,quantile=%q} %s\n",
				p.Policy, q, fv(v/1e3))
		}
		return []string{s("0.5", p.P50ms), s("0.99", p.P99ms), s("0.999", p.P999ms)}
	})
	emit("anthill_serve_queue_depth", "gauge", "gateway send-queue depth per policy", func(p PipeFrame) []string {
		return []string{fmt.Sprintf("anthill_serve_queue_depth{policy=%q} %d\n", p.Policy, p.QueueDepth)}
	})
	emit("anthill_serve_queue_depth_max", "gauge", "peak gateway send-queue depth per policy", func(p PipeFrame) []string {
		return []string{fmt.Sprintf("anthill_serve_queue_depth_max{policy=%q} %d\n", p.Policy, p.MaxQueueDepth)}
	})
	emit("anthill_serve_throughput_rps", "gauge", "served requests per virtual second over the sliding window", func(p PipeFrame) []string {
		return []string{fmt.Sprintf("anthill_serve_throughput_rps{policy=%q} %s\n", p.Policy, fv(p.ThroughputRPS))}
	})
	fmt.Fprintf(&b, "# HELP anthill_serve_virtual_seconds current virtual time\n# TYPE anthill_serve_virtual_seconds gauge\n")
	fmt.Fprintf(&b, "anthill_serve_virtual_seconds %s\n", fv(f.VirtualS))
	_, err := io.WriteString(w, b.String())
	return err
}

// EventsJSONL writes the bounded event ring, oldest first, one JSON object
// per line.
func (e *Engine) EventsJSONL(w io.Writer) error {
	e.mu.Lock()
	evs := make([]Event, 0, len(e.ring))
	if e.wrap {
		evs = append(evs, e.ring[e.next:]...)
		evs = append(evs, e.ring[:e.next]...)
	} else {
		evs = append(evs, e.ring...)
	}
	e.mu.Unlock()
	enc := json.NewEncoder(w)
	for _, ev := range evs {
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	return nil
}
