package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/xfer"
)

// The Attach hooks resolve metric handles by index, and Hist keeps its
// level weights in dense slices. The map-keyed handles and the map-keyed
// histogram they replaced are kept below as references: fed the same
// input, each pair must render identically.

// refHandles memoizes one hook's metric handles per label tuple: resolve
// formats the tuple's keys and looks the metrics up the first time the
// tuple is seen, so later events of the tuple format no strings.
type refHandles[K comparable, V any] struct {
	m       map[K]V
	resolve func(K) V
}

func newRefHandles[K comparable, V any](resolve func(K) V) *refHandles[K, V] {
	return &refHandles[K, V]{m: make(map[K]V), resolve: resolve}
}

// get returns the tuple's handles. Caller holds the registry mutex.
func (h *refHandles[K, V]) get(k K) V {
	v, ok := h.m[k]
	if !ok {
		v = h.resolve(k)
		h.m[k] = v
	}
	return v
}

// Label tuples of the hooks' metric keys.
type (
	refProcLabels struct {
		filter string
		inst   int
		dev    hw.Kind
	}
	// refWorkerLabels serves both the Target (worker name) and QueueDepth
	// (queue name) hooks.
	refWorkerLabels struct {
		filter string
		inst   int
		name   string
	}
	refDemandLabels struct {
		filter string
		inst   int
		input  int
		event  core.DemandEvent
	}
	refStreamLabels struct {
		stream string
		inst   int
		push   bool
	}
	refFaultLabels struct{ kind, phase string }
	refSpanLabels  struct {
		filter string
		inst   int
		node   int
		kind   xfer.SpanKind
	}
)

// attachRef is Registry.Attach on map-keyed handles: every record hashes
// its label tuple to find its metrics.
func attachRef(r *Registry, rt *core.Runtime) {
	procs := newRefHandles(func(l refProcLabels) [2]*Counter {
		k := fmt.Sprintf("filter=%s,inst=%d,dev=%s", l.filter, l.inst, l.dev)
		return [2]*Counter{r.Counter("events_processed{" + k + "}"), r.Counter("service_time_s{" + k + "}")}
	})
	prevProc := rt.Hooks.Process
	rt.Hooks.Process = func(rec core.ProcRecord) {
		dur := float64(rec.End - rec.Start)
		r.mu.Lock()
		c := procs.get(refProcLabels{rec.Filter, rec.Instance, rec.Kind})
		c[0].Add(1)
		c[1].Add(dur)
		r.mu.Unlock()
		if prevProc != nil {
			prevProc(rec)
		}
	}
	targets := newRefHandles(func(l refWorkerLabels) level {
		k := fmt.Sprintf("dqaa_target{filter=%s,inst=%d,worker=%s}", l.filter, l.inst, l.name)
		return level{r.Gauge(k), r.Hist(k)}
	})
	prevTarget := rt.Hooks.Target
	rt.Hooks.Target = func(rec core.TargetRecord) {
		r.mu.Lock()
		targets.get(refWorkerLabels{rec.Filter, rec.Instance, rec.Worker}).observe(rec.At, rec.Target)
		r.mu.Unlock()
		if prevTarget != nil {
			prevTarget(rec)
		}
	}
	depths := newRefHandles(func(l refWorkerLabels) level {
		k := fmt.Sprintf("queue_depth{filter=%s,inst=%d,queue=%s}", l.filter, l.inst, l.name)
		return level{r.Gauge(k), r.Hist(k)}
	})
	prevDepth := rt.Hooks.QueueDepth
	rt.Hooks.QueueDepth = func(rec core.QueueDepthRecord) {
		r.mu.Lock()
		depths.get(refWorkerLabels{rec.Filter, rec.Instance, rec.Queue}).observe(rec.At, rec.Depth)
		r.mu.Unlock()
		if prevDepth != nil {
			prevDepth(rec)
		}
	}
	demands := newRefHandles(func(l refDemandLabels) *Counter {
		return r.Counter(fmt.Sprintf("demand{filter=%s,inst=%d,input=%d,event=%s}",
			l.filter, l.inst, l.input, l.event))
	})
	prevDemand := rt.Hooks.Demand
	rt.Hooks.Demand = func(rec core.DemandRecord) {
		r.mu.Lock()
		demands.get(refDemandLabels{rec.Filter, rec.Instance, rec.Input, rec.Event}).Add(1)
		r.mu.Unlock()
		if prevDemand != nil {
			prevDemand(rec)
		}
	}
	sends := newRefHandles(func(l refStreamLabels) [2]*Counter {
		k := fmt.Sprintf("stream=%s,inst=%d,mode=%s", l.stream, l.inst, mode(l.push))
		return [2]*Counter{r.Counter("stream_sends{" + k + "}"), r.Counter("stream_bytes{" + k + "}")}
	})
	prevSend := rt.Hooks.Send
	rt.Hooks.Send = func(rec core.SendRecord) {
		r.mu.Lock()
		c := sends.get(refStreamLabels{rec.Stream, rec.FromInstance, rec.Push})
		c[0].Add(1)
		c[1].Add(float64(rec.Bytes))
		r.mu.Unlock()
		if prevSend != nil {
			prevSend(rec)
		}
	}
	emits := newRefHandles(func(l refStreamLabels) *Counter {
		return r.Counter(fmt.Sprintf("stream_emits{stream=%s,inst=%d}", l.stream, l.inst))
	})
	prevEmit := rt.Hooks.Emit
	rt.Hooks.Emit = func(rec core.EmitRecord) {
		r.mu.Lock()
		emits.get(refStreamLabels{stream: rec.Stream, inst: rec.Instance}).Add(1)
		r.mu.Unlock()
		if prevEmit != nil {
			prevEmit(rec)
		}
	}
	delivers := newRefHandles(func(l refStreamLabels) *Counter {
		return r.Counter(fmt.Sprintf("stream_delivers{stream=%s,inst=%d,mode=%s}", l.stream, l.inst, mode(l.push)))
	})
	prevDeliver := rt.Hooks.Deliver
	rt.Hooks.Deliver = func(rec core.DeliverRecord) {
		r.mu.Lock()
		delivers.get(refStreamLabels{rec.Stream, rec.Instance, rec.Push}).Add(1)
		r.mu.Unlock()
		if prevDeliver != nil {
			prevDeliver(rec)
		}
	}
	faults := newRefHandles(func(l refFaultLabels) *Counter {
		return r.Counter(fmt.Sprintf("faults{kind=%s,phase=%s}", l.kind, l.phase))
	})
	prevFault := rt.Hooks.Fault
	rt.Hooks.Fault = func(rec core.FaultRecord) {
		r.mu.Lock()
		faults.get(refFaultLabels{rec.Kind, rec.Phase}).Add(1)
		r.mu.Unlock()
		if prevFault != nil {
			prevFault(rec)
		}
	}
	xfers := newRefHandles(func(l refSpanLabels) *xferHandles {
		k := fmt.Sprintf("filter=%s,inst=%d,node=%d,kind=%s", l.filter, l.inst, l.node, l.kind)
		return &xferHandles{key: k, spans: r.Counter("xfer_spans{" + k + "}"), busy: r.Counter("xfer_busy_s{" + k + "}")}
	})
	prevSpan := rt.Hooks.Span
	rt.Hooks.Span = func(rec core.SpanRecord) {
		r.mu.Lock()
		x := xfers.get(refSpanLabels{rec.Filter, rec.Instance, rec.NodeID, rec.Kind})
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

// TestRegistryMatchesMapHandles feeds the same seeded random record stream
// to a registry attached through Attach and one attached through the
// map-keyed reference, and requires byte-equal Prometheus text mid-stream
// and byte-equal Summary, JSON and Prometheus text at the end. The stream
// spans four filters and streams and fifteen instances (so every dense
// slice grows past its first sizes), several workers per instance, the
// input, send and labeled-partition queues, every demand event, spans with
// and without bytes, faults, negative instances as hand-built records may
// carry, and label strings that are equal but not the same string.
func TestRegistryMatchesMapHandles(t *testing.T) {
	filters := []string{"src", "tile", "clf", "sink"}
	streams := []string{"src->tile", "tile->clf", "clf->sink", "tile->sink"}
	workers := []string{"g0", "c0", "c1", "c2", "c3"}
	queues := []string{"in0", "in1", "in2", "in3", "in4", "in5", "send", "send.p0", "send.p1", "send.p2", "send.p10"}
	faultKinds := []string{"net", "node", "gpu"}
	phases := []string{"begin", "end"}
	for seed := int64(1); seed <= 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		// pick returns one of names, half the time as a fresh copy.
		pick := func(names []string) string {
			s := names[rng.Intn(len(names))]
			if rng.Intn(2) == 0 {
				s = strings.Clone(s)
			}
			return s
		}
		inst := func() int { return rng.Intn(16) - 1 }
		got, want := NewRegistry(), NewRegistry()
		grt, wrt := &core.Runtime{}, &core.Runtime{}
		got.Attach(grt)
		attachRef(want, wrt)
		var at sim.Time
		for i := 0; i < 4000; i++ {
			at += sim.Time(rng.Intn(3)) * 0.001
			switch rng.Intn(9) {
			case 0:
				rec := core.ProcRecord{Filter: pick(filters), Instance: inst(), Kind: hw.Kind(rng.Intn(hw.NumKinds)),
					Start: at, End: at + sim.Time(rng.Float64())}
				grt.Hooks.Process(rec)
				wrt.Hooks.Process(rec)
			case 1:
				rec := core.TargetRecord{Filter: pick(filters), Instance: inst(), Worker: pick(workers), At: at, Target: rng.Intn(9)}
				grt.Hooks.Target(rec)
				wrt.Hooks.Target(rec)
			case 2:
				rec := core.QueueDepthRecord{Filter: pick(filters), Instance: inst(), Queue: pick(queues), At: at, Depth: rng.Intn(40)}
				grt.Hooks.QueueDepth(rec)
				wrt.Hooks.QueueDepth(rec)
			case 3:
				rec := core.DemandRecord{Filter: pick(filters), Instance: inst(), Worker: pick(workers), Input: rng.Intn(6),
					At: at, Event: core.DemandEvent(rng.Intn(4)), Outstanding: rng.Intn(5)}
				grt.Hooks.Demand(rec)
				wrt.Hooks.Demand(rec)
			case 4:
				rec := core.SendRecord{Stream: pick(streams), FromInstance: inst(), ToInstance: inst(), TaskID: uint64(i),
					Bytes: int64(rng.Intn(4096)), At: at, Push: rng.Intn(2) == 0}
				grt.Hooks.Send(rec)
				wrt.Hooks.Send(rec)
			case 5:
				rec := core.EmitRecord{Stream: pick(streams), Filter: pick(filters), Instance: inst(), TaskID: uint64(i),
					Bytes: int64(rng.Intn(4096)), At: at}
				grt.Hooks.Emit(rec)
				wrt.Hooks.Emit(rec)
			case 6:
				rec := core.DeliverRecord{Stream: pick(streams), Filter: pick(filters), Instance: inst(), Input: rng.Intn(6),
					TaskID: uint64(i), At: at, Push: rng.Intn(2) == 0}
				grt.Hooks.Deliver(rec)
				wrt.Hooks.Deliver(rec)
			case 7:
				rec := core.FaultRecord{Kind: pick(faultKinds), Phase: pick(phases), At: at, Node: rng.Intn(14), Instance: -1}
				grt.Hooks.Fault(rec)
				wrt.Hooks.Fault(rec)
			default:
				var bytes int64
				if rng.Intn(2) == 0 {
					bytes = int64(1 + rng.Intn(1<<20))
				}
				rec := core.SpanRecord{Filter: pick(filters), Instance: inst(), Worker: pick(workers), NodeID: rng.Intn(14),
					Kind: xfer.SpanKind(rng.Intn(3)), Start: at, End: at + sim.Time(rng.Float64()), Bytes: bytes, TaskID: uint64(i)}
				grt.Hooks.Span(rec)
				wrt.Hooks.Span(rec)
			}
			if i == 1500 {
				requireSameProm(t, seed, "mid-stream", got.Snapshot(at), want.Snapshot(at))
			}
		}
		horizon := at + 1
		got.Finish(horizon)
		want.Finish(horizon)
		if g, w := got.Summary(), want.Summary(); g != w {
			t.Fatalf("seed %d: Summary differs from the map-keyed reference:\n--- got ---\n%s\n--- want ---\n%s", seed, g, w)
		}
		gj, err := got.JSON()
		if err != nil {
			t.Fatal(err)
		}
		wj, err := want.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gj, wj) {
			t.Fatalf("seed %d: JSON differs from the map-keyed reference", seed)
		}
		requireSameProm(t, seed, "final", got.Snapshot(horizon), want.Snapshot(horizon))
		if n := len(got.counters) + len(got.gauges) + len(got.hists); n < 1000 {
			t.Fatalf("seed %d: only %d metrics: the stream is too thin to compare", seed, n)
		}
	}
}

// requireSameProm compares two snapshots' Prometheus text.
func requireSameProm(t *testing.T, seed int64, when string, got, want Snapshot) {
	t.Helper()
	var g, w bytes.Buffer
	if err := got.WritePromText(&g); err != nil {
		t.Fatal(err)
	}
	if err := want.WritePromText(&w); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(g.Bytes(), w.Bytes()) {
		t.Fatalf("seed %d: %s Prometheus text differs from the map-keyed reference (%d vs %d bytes)", seed, when, g.Len(), w.Len())
	}
}

// refHist is Hist with its level weights in a map.
type refHist struct {
	lastT  sim.Time
	lastV  int
	weight map[int]float64
	set    bool
}

func (h *refHist) observe(at sim.Time, v int) {
	if h.weight == nil {
		h.weight = make(map[int]float64)
	}
	if h.set {
		h.weight[h.lastV] += float64(at - h.lastT)
	}
	h.set = true
	h.lastT, h.lastV = at, v
}

func (h *refHist) finish(horizon sim.Time) {
	if h.set && horizon > h.lastT {
		h.weight[h.lastV] += float64(horizon - h.lastT)
		h.lastT = horizon
	}
}

func (h *refHist) levels() []int {
	vals := make([]int, 0, len(h.weight))
	for v := range h.weight {
		vals = append(vals, v)
	}
	sort.Ints(vals)
	return vals
}

func (h *refHist) total() float64 {
	var t float64
	for _, v := range h.levels() {
		t += h.weight[v]
	}
	return t
}

func (h *refHist) quantile(q float64) int {
	tot := h.total()
	if tot == 0 {
		return 0
	}
	vals := h.levels()
	acc := 0.0
	for _, v := range vals {
		acc += h.weight[v]
		if acc >= q*tot {
			return v
		}
	}
	return vals[len(vals)-1]
}

func (h *refHist) mean() float64 {
	tot := h.total()
	if tot == 0 {
		return 0
	}
	var s float64
	for _, v := range h.levels() {
		s += float64(v) * h.weight[v]
	}
	return s / tot
}

// snapshot is Registry.Snapshot's histogram copy.
func (h *refHist) snapshot(at sim.Time) ([]int, []float64) {
	levels := make([]int, 0, len(h.weight))
	for v := range h.weight {
		levels = append(levels, v)
	}
	if h.set && at > h.lastT {
		if _, ok := h.weight[h.lastV]; !ok {
			levels = append(levels, h.lastV)
		}
	}
	sort.Ints(levels)
	weights := make([]float64, len(levels))
	for i, v := range levels {
		weights[i] = h.weight[v]
		if h.set && v == h.lastV && at > h.lastT {
			weights[i] += float64(at - h.lastT)
		}
	}
	return levels, weights
}

// TestHistMatchesMapReference drives a registry histogram and the
// map-keyed reference with the same random signals (negative levels, jumps,
// repeated instants that leave a level after zero time) and requires equal
// snapshots mid-signal and, after Finish, equal means, quantiles, summary
// rows and JSON weights.
func TestHistMatchesMapReference(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		r := NewRegistry()
		h, ref := r.Hist("h"), &refHist{}
		lo, span := -rng.Intn(4), 1+rng.Intn(60)
		var at sim.Time
		for i, n := 0, rng.Intn(300); i < n; i++ {
			at += sim.Time(rng.Intn(3)) * 0.01
			v := lo + rng.Intn(span)
			h.Observe(at, v)
			ref.observe(at, v)
			if rng.Intn(20) == 0 {
				snapAt := at + sim.Time(rng.Intn(2))*0.005
				got := r.Snapshot(snapAt).Hists[0]
				wl, ww := ref.snapshot(snapAt)
				if fmt.Sprint(got.Levels, got.Weights) != fmt.Sprint(wl, ww) {
					t.Fatalf("seed %d at %v: snapshot %v %v, reference %v %v", seed, snapAt, got.Levels, got.Weights, wl, ww)
				}
			}
		}
		horizon := at + sim.Time(rng.Intn(2))
		r.Finish(horizon)
		ref.finish(horizon)
		for _, q := range []float64{0, 0.5, 0.95, 1} {
			if g, w := h.Quantile(q), ref.quantile(q); g != w {
				t.Fatalf("seed %d: Quantile(%v) = %d, reference %d", seed, q, g, w)
			}
		}
		if g, w := h.Mean(), ref.mean(); g != w {
			t.Fatalf("seed %d: Mean = %v, reference %v", seed, g, w)
		}
		raw, err := r.JSON()
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			Hists map[string]struct {
				Weight map[string]float64 `json:"weight"`
			} `json:"hists"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatal(err)
		}
		want := map[string]float64{}
		for v, w := range ref.weight {
			want[fmt.Sprint(v)] = w
		}
		if got := doc.Hists["h"].Weight; fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("seed %d: JSON weights %v, reference %v", seed, got, want)
		}
	}
}
