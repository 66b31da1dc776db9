// Package obs is the run-time metrics registry: it subscribes to a
// runtime's hook bus (core.Bus) and aggregates the event stream into
// counters, time-weighted gauges, and time-weighted histograms keyed by
// filter, instance, queue, and device. After a run it renders a per-run
// summary table (markdown, via metrics.Table) and a machine-readable JSON
// document.
//
// Every aggregate is computed from the deterministic hook stream and
// rendered with sorted keys and fixed formatting, so for a fixed seed the
// summary and the JSON are byte-identical across repeated runs — the
// property the determinism CI check (scripts/determinism.sh) pins down.
package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Counter accumulates additive observations: N is the number of Add calls,
// Sum the total of their values. A pure event counter adds 1 per event, so
// N == Sum; a duration counter adds each span's length.
type Counter struct {
	N   int64
	Sum float64
}

// Add records one observation.
func (c *Counter) Add(v float64) {
	c.N++
	c.Sum += v
}

// Gauge tracks a piecewise-constant signal in virtual time: last value,
// extrema, and the time integral (for the time-weighted mean). Samples must
// arrive in non-decreasing time order — hooks fire in virtual-time order,
// so bus-fed gauges satisfy this by construction.
type Gauge struct {
	lastT    sim.Time
	lastV    float64
	integral float64 // ∫ value dt over [0, lastT)
	min, max float64
	set      bool
}

// Set records that the signal changed to v at time at.
func (g *Gauge) Set(at sim.Time, v float64) {
	if !g.set {
		// The signal is defined from its first sample onwards; before that
		// it contributes neither weight nor extrema.
		g.set = true
		g.lastT, g.lastV = at, v
		g.min, g.max = v, v
		return
	}
	g.integral += g.lastV * float64(at-g.lastT)
	g.lastT, g.lastV = at, v
	if v < g.min {
		g.min = v
	}
	if v > g.max {
		g.max = v
	}
}

// finish closes the integral at the run horizon.
func (g *Gauge) finish(horizon sim.Time) {
	if g.set && horizon > g.lastT {
		g.integral += g.lastV * float64(horizon-g.lastT)
		g.lastT = horizon
	}
}

// Mean is the time-weighted mean of the signal over the closed window.
// Valid after Registry.Finish.
func (g *Gauge) Mean(horizon sim.Time) float64 {
	if !g.set || horizon <= 0 {
		return 0
	}
	return g.integral / float64(horizon)
}

// Hist is a time-weighted histogram of an integer-valued piecewise-constant
// signal (queue depths, DQAA targets): the weight of level v is the total
// virtual time the signal spent at v. Exact — no bucketing error — because
// the signals it tracks take small integer values, which also lets the
// levels index dense slices: pos[v] for v >= 0, neg[-1-v] below zero.
type Hist struct {
	lastT    sim.Time
	lastV    int
	pos, neg []histLevel
	set      bool
}

// histLevel is one level's accumulated weight. seen marks a level the
// signal has left or been closed at, even after zero time there, so the
// rendered level set is the one the signal visited.
type histLevel struct {
	w    float64
	seen bool
}

// add accumulates dt at level v, growing the slices the first time.
func (h *Hist) add(v int, dt float64) {
	s := &h.pos
	if v < 0 {
		s, v = &h.neg, -1-v
	}
	if v >= len(*s) {
		*s = append(*s, make([]histLevel, v+1-len(*s))...)
	}
	l := &(*s)[v]
	l.w += dt
	l.seen = true
}

// Observe records that the signal changed to v at time at.
func (h *Hist) Observe(at sim.Time, v int) {
	if h.set {
		h.add(h.lastV, float64(at-h.lastT))
	}
	h.set = true
	h.lastT, h.lastV = at, v
}

// finish closes the current level's weight at the run horizon.
func (h *Hist) finish(horizon sim.Time) {
	if h.set && horizon > h.lastT {
		h.add(h.lastV, float64(horizon-h.lastT))
		h.lastT = horizon
	}
}

// levels yields the seen levels in ascending order with their weights.
// Aggregations sum in this order, so their floating-point results are
// reproducible.
func (h *Hist) levels(yield func(v int, w float64) bool) {
	for i := len(h.neg) - 1; i >= 0; i-- {
		if l := h.neg[i]; l.seen && !yield(-1-i, l.w) {
			return
		}
	}
	for v, l := range h.pos {
		if l.seen && !yield(v, l.w) {
			return
		}
	}
}

// total is the histogram's total weight.
func (h *Hist) total() float64 {
	var t float64
	for _, w := range h.levels {
		t += w
	}
	return t
}

// Quantile returns the smallest value v such that at least q of the total
// weight lies at values <= v. Valid after Registry.Finish.
func (h *Hist) Quantile(q float64) int {
	tot := h.total()
	if tot == 0 {
		return 0
	}
	acc, last := 0.0, 0
	for v, w := range h.levels {
		acc += w
		if acc >= q*tot {
			return v
		}
		last = v
	}
	return last
}

// Mean is the time-weighted mean of the signal. Valid after Finish.
func (h *Hist) Mean() float64 {
	tot := h.total()
	if tot == 0 {
		return 0
	}
	var s float64
	for v, w := range h.levels {
		s += float64(v) * w
	}
	return s / tot
}

// Registry aggregates one run's hook stream.
//
// Mutation through the Attach hooks and reads through Snapshot share an
// internal mutex, so a live consumer (the serve demo's /metrics handler)
// can snapshot the registry from another goroutine while the simulation is
// still feeding it. Direct use of the Counter/Gauge/Hist accessors is not
// synchronized — that path is for single-goroutine post-run aggregation,
// where the lock would buy nothing.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
	horizon  sim.Time
	finished bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Hist),
	}
}

// Counter returns (creating if needed) the named counter.
func (r *Registry) Counter(key string) *Counter {
	c := r.counters[key]
	if c == nil {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (creating if needed) the named gauge.
func (r *Registry) Gauge(key string) *Gauge {
	g := r.gauges[key]
	if g == nil {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// Hist returns (creating if needed) the named histogram.
func (r *Registry) Hist(key string) *Hist {
	h := r.hists[key]
	if h == nil {
		h = &Hist{}
		r.hists[key] = h
	}
	return h
}

// The Attach hooks resolve each record's metric handles through a small
// index instead of a hash map: the filter or stream name and the worker or
// queue name are found by == in short slices (a graph has few of each, and
// the runtime hands its hooks the same few strings over and over), integer
// labels index dense slices. A handle's keys are formatted once, the first
// time its label tuple is seen; later events of the tuple format no strings
// and hash nothing.

// byName is a short list of string labels, one value slot each.
type byName[V any] struct {
	names []string
	vals  []V
}

// at returns name's slot, appending a zero one the first time.
func (b *byName[V]) at(name string) *V {
	for i := range b.names {
		if b.names[i] == name {
			return &b.vals[i]
		}
	}
	var zero V
	b.names = append(b.names, name)
	b.vals = append(b.vals, zero)
	return &b.vals[len(b.vals)-1]
}

// byIndex is a dense slice of value slots indexed by an integer label: an
// instance, input, node, device kind or demand event. The labels a runtime
// produces are small and non-negative; a negative one (a hand-built record)
// is interleaved with them, 0, -1, 1, -2, ... at slots 0, 1, 2, 3, ...
type byIndex[V any] []V

// at returns label i's slot, growing the slice the first time.
func (b *byIndex[V]) at(i int) *V {
	j := i << 1
	if i < 0 {
		j = ^j
	}
	if j >= len(*b) {
		*b = append(*b, make([]V, j+1-len(*b))...)
	}
	return &(*b)[j]
}

// level is a gauge and a histogram fed the same integer signal.
type level struct {
	g *Gauge
	h *Hist
}

func (l level) observe(at sim.Time, v int) {
	l.g.Set(at, float64(v))
	l.h.Observe(at, v)
}

// xferHandles are one span tuple's counters; bytes is resolved on the
// tuple's first span that moves data, so kernel-only tuples have none.
type xferHandles struct {
	key                string
	spans, busy, bytes *Counter
}

// mode names a stream transfer's path in metric keys.
func mode(push bool) string {
	if push {
		return "push"
	}
	return "demand"
}

// modeIdx indexes a stream transfer's path: 0 demand, 1 push.
func modeIdx(push bool) int {
	if push {
		return 1
	}
	return 0
}

// Attach subscribes the registry to every hook of the runtime's bus,
// chaining any subscriber already installed so multiple consumers (e.g. a
// trace collector and a registry) can share one run. Call before rt.Run.
//
// Each hook takes the registry mutex around its mutations (and releases it
// before chaining to the previous subscriber), so Snapshot can read from
// another goroutine mid-run.
func (r *Registry) Attach(rt *core.Runtime) {
	var procs byName[byIndex[byIndex[[2]*Counter]]] // filter, instance, device
	prevProc := rt.Hooks.Process
	rt.Hooks.Process = func(rec core.ProcRecord) {
		dur := float64(rec.End - rec.Start)
		r.mu.Lock()
		c := procs.at(rec.Filter).at(rec.Instance).at(int(rec.Kind))
		if c[0] == nil {
			k := fmt.Sprintf("filter=%s,inst=%d,dev=%s", rec.Filter, rec.Instance, rec.Kind)
			*c = [2]*Counter{r.Counter("events_processed{" + k + "}"), r.Counter("service_time_s{" + k + "}")}
		}
		c[0].Add(1)
		c[1].Add(dur)
		r.mu.Unlock()
		if prevProc != nil {
			prevProc(rec)
		}
	}
	var targets byName[byIndex[byName[level]]] // filter, instance, worker
	prevTarget := rt.Hooks.Target
	rt.Hooks.Target = func(rec core.TargetRecord) {
		r.mu.Lock()
		l := targets.at(rec.Filter).at(rec.Instance).at(rec.Worker)
		if l.g == nil {
			k := fmt.Sprintf("dqaa_target{filter=%s,inst=%d,worker=%s}", rec.Filter, rec.Instance, rec.Worker)
			*l = level{r.Gauge(k), r.Hist(k)}
		}
		l.observe(rec.At, rec.Target)
		r.mu.Unlock()
		if prevTarget != nil {
			prevTarget(rec)
		}
	}
	var depths byName[byIndex[byName[level]]] // filter, instance, queue
	prevDepth := rt.Hooks.QueueDepth
	rt.Hooks.QueueDepth = func(rec core.QueueDepthRecord) {
		r.mu.Lock()
		l := depths.at(rec.Filter).at(rec.Instance).at(rec.Queue)
		if l.g == nil {
			k := fmt.Sprintf("queue_depth{filter=%s,inst=%d,queue=%s}", rec.Filter, rec.Instance, rec.Queue)
			*l = level{r.Gauge(k), r.Hist(k)}
		}
		l.observe(rec.At, rec.Depth)
		r.mu.Unlock()
		if prevDepth != nil {
			prevDepth(rec)
		}
	}
	var demands byName[byIndex[byIndex[byIndex[*Counter]]]] // filter, instance, input, event
	prevDemand := rt.Hooks.Demand
	rt.Hooks.Demand = func(rec core.DemandRecord) {
		r.mu.Lock()
		c := demands.at(rec.Filter).at(rec.Instance).at(rec.Input).at(int(rec.Event))
		if *c == nil {
			*c = r.Counter(fmt.Sprintf("demand{filter=%s,inst=%d,input=%d,event=%s}",
				rec.Filter, rec.Instance, rec.Input, rec.Event))
		}
		(*c).Add(1)
		r.mu.Unlock()
		if prevDemand != nil {
			prevDemand(rec)
		}
	}
	var sends byName[byIndex[[2][2]*Counter]] // stream, instance, mode
	prevSend := rt.Hooks.Send
	rt.Hooks.Send = func(rec core.SendRecord) {
		r.mu.Lock()
		c := &sends.at(rec.Stream).at(rec.FromInstance)[modeIdx(rec.Push)]
		if c[0] == nil {
			k := fmt.Sprintf("stream=%s,inst=%d,mode=%s", rec.Stream, rec.FromInstance, mode(rec.Push))
			*c = [2]*Counter{r.Counter("stream_sends{" + k + "}"), r.Counter("stream_bytes{" + k + "}")}
		}
		c[0].Add(1)
		c[1].Add(float64(rec.Bytes))
		r.mu.Unlock()
		if prevSend != nil {
			prevSend(rec)
		}
	}
	var emits byName[byIndex[*Counter]] // stream, instance
	prevEmit := rt.Hooks.Emit
	rt.Hooks.Emit = func(rec core.EmitRecord) {
		r.mu.Lock()
		c := emits.at(rec.Stream).at(rec.Instance)
		if *c == nil {
			*c = r.Counter(fmt.Sprintf("stream_emits{stream=%s,inst=%d}", rec.Stream, rec.Instance))
		}
		(*c).Add(1)
		r.mu.Unlock()
		if prevEmit != nil {
			prevEmit(rec)
		}
	}
	var delivers byName[byIndex[[2]*Counter]] // stream, instance, mode
	prevDeliver := rt.Hooks.Deliver
	rt.Hooks.Deliver = func(rec core.DeliverRecord) {
		r.mu.Lock()
		c := &delivers.at(rec.Stream).at(rec.Instance)[modeIdx(rec.Push)]
		if *c == nil {
			*c = r.Counter(fmt.Sprintf("stream_delivers{stream=%s,inst=%d,mode=%s}", rec.Stream, rec.Instance, mode(rec.Push)))
		}
		(*c).Add(1)
		r.mu.Unlock()
		if prevDeliver != nil {
			prevDeliver(rec)
		}
	}
	var faults byName[byName[*Counter]] // kind, phase
	prevFault := rt.Hooks.Fault
	rt.Hooks.Fault = func(rec core.FaultRecord) {
		r.mu.Lock()
		c := faults.at(rec.Kind).at(rec.Phase)
		if *c == nil {
			*c = r.Counter(fmt.Sprintf("faults{kind=%s,phase=%s}", rec.Kind, rec.Phase))
		}
		(*c).Add(1)
		r.mu.Unlock()
		if prevFault != nil {
			prevFault(rec)
		}
	}
	var xfers byName[byIndex[byIndex[byIndex[xferHandles]]]] // filter, instance, node, kind
	prevSpan := rt.Hooks.Span
	rt.Hooks.Span = func(rec core.SpanRecord) {
		r.mu.Lock()
		x := xfers.at(rec.Filter).at(rec.Instance).at(rec.NodeID).at(int(rec.Kind))
		if x.spans == nil {
			k := fmt.Sprintf("filter=%s,inst=%d,node=%d,kind=%s", rec.Filter, rec.Instance, rec.NodeID, rec.Kind)
			*x = xferHandles{key: k, spans: r.Counter("xfer_spans{" + k + "}"), busy: r.Counter("xfer_busy_s{" + k + "}")}
		}
		x.spans.Add(1)
		x.busy.Add(float64(rec.End - rec.Start))
		if rec.Bytes > 0 {
			if x.bytes == nil {
				x.bytes = r.Counter("xfer_bytes{" + x.key + "}")
			}
			x.bytes.Add(float64(rec.Bytes))
		}
		r.mu.Unlock()
		if prevSpan != nil {
			prevSpan(rec)
		}
	}
}

// Finish closes every time-weighted aggregate at the run horizon
// (typically rt.K.Now() after Run returns). Must be called exactly once,
// before Summary or JSON.
func (r *Registry) Finish(horizon sim.Time) {
	if r.finished {
		panic("obs: Finish called twice")
	}
	r.finished = true
	r.horizon = horizon
	for _, g := range r.gauges {
		g.finish(horizon)
	}
	for _, h := range r.hists {
		h.finish(horizon)
	}
}

// Summary renders the registry as markdown tables: one for counters, one
// for gauges, one for histograms. Rows are sorted by key, values printed
// with fixed precision, so the output is byte-stable per seed.
func (r *Registry) Summary() string {
	if !r.finished {
		panic("obs: Summary before Finish")
	}
	out := ""
	if len(r.counters) > 0 {
		t := metrics.Table{
			Title:  "Counters",
			Header: []string{"metric", "n", "sum", "mean"},
		}
		for _, k := range sortedKeys(r.counters) {
			c := r.counters[k]
			mean := 0.0
			if c.N > 0 {
				mean = c.Sum / float64(c.N)
			}
			t.AddRow(k, fmt.Sprintf("%d", c.N), fmtF(c.Sum), fmtF(mean))
		}
		out += t.Render() + "\n"
	}
	if len(r.gauges) > 0 {
		t := metrics.Table{
			Title:  "Gauges (time-weighted)",
			Header: []string{"metric", "last", "mean", "min", "max"},
		}
		for _, k := range sortedKeys(r.gauges) {
			g := r.gauges[k]
			t.AddRow(k, fmtF(g.lastV), fmtF(g.Mean(r.horizon)), fmtF(g.min), fmtF(g.max))
		}
		out += t.Render() + "\n"
	}
	if len(r.hists) > 0 {
		t := metrics.Table{
			Title:  "Histograms (time-weighted)",
			Header: []string{"metric", "mean", "p50", "p95", "max"},
		}
		for _, k := range sortedKeys(r.hists) {
			h := r.hists[k]
			t.AddRow(k, fmtF(h.Mean()),
				fmt.Sprintf("%d", h.Quantile(0.50)),
				fmt.Sprintf("%d", h.Quantile(0.95)),
				fmt.Sprintf("%d", h.Quantile(1.0)))
		}
		out += t.Render() + "\n"
	}
	return out
}

// jsonCounter, jsonGauge and jsonHist are the registry's JSON shapes.
// encoding/json sorts map keys, so the document is deterministic.
type jsonCounter struct {
	N   int64   `json:"n"`
	Sum float64 `json:"sum"`
}

type jsonGauge struct {
	Last float64 `json:"last"`
	Mean float64 `json:"mean"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
}

type jsonHist struct {
	Mean float64 `json:"mean"`
	P50  int     `json:"p50"`
	P95  int     `json:"p95"`
	Max  int     `json:"max"`
	// Weight maps each observed level to the virtual time spent there.
	Weight map[string]float64 `json:"weight"`
}

// JSON renders the registry as an indented, key-sorted JSON document.
func (r *Registry) JSON() ([]byte, error) {
	if !r.finished {
		panic("obs: JSON before Finish")
	}
	doc := struct {
		HorizonS float64                `json:"horizon_s"`
		Counters map[string]jsonCounter `json:"counters"`
		Gauges   map[string]jsonGauge   `json:"gauges"`
		Hists    map[string]jsonHist    `json:"hists"`
	}{
		HorizonS: float64(r.horizon),
		Counters: make(map[string]jsonCounter, len(r.counters)),
		Gauges:   make(map[string]jsonGauge, len(r.gauges)),
		Hists:    make(map[string]jsonHist, len(r.hists)),
	}
	for k, c := range r.counters {
		doc.Counters[k] = jsonCounter{N: c.N, Sum: c.Sum}
	}
	for k, g := range r.gauges {
		doc.Gauges[k] = jsonGauge{Last: g.lastV, Mean: g.Mean(r.horizon), Min: g.min, Max: g.max}
	}
	for k, h := range r.hists {
		w := make(map[string]float64)
		for v, t := range h.levels {
			w[fmt.Sprintf("%d", v)] = t
		}
		doc.Hists[k] = jsonHist{
			Mean: h.Mean(), P50: h.Quantile(0.50), P95: h.Quantile(0.95),
			Max: h.Quantile(1.0), Weight: w,
		}
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false) // keep "a->b" stream keys readable
	enc.SetIndent("", "  ")
	if err := enc.Encode(doc); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sortedKeys returns the map's keys in sorted order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// fmtF prints a float with fixed precision for stable table output.
func fmtF(v float64) string {
	return fmt.Sprintf("%.6g", v)
}
