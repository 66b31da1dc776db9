package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Add(1)
	c.Add(1)
	c.Add(2.5)
	if c.N != 3 || c.Sum != 4.5 {
		t.Fatalf("counter = {%d, %g}, want {3, 4.5}", c.N, c.Sum)
	}
}

func TestGaugeTimeWeightedMean(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g")
	// Signal: undefined on [0,1), 2 on [1,3), 6 on [3,4). Horizon 4.
	g.Set(1, 2)
	g.Set(3, 6)
	// Integral = 2*2 + 6*1 = 10; mean over horizon 4 = 2.5.
	s := r.Snapshot(4).Gauges[0]
	if math.Abs(s.Mean-2.5) > 1e-12 {
		t.Fatalf("mean = %g, want 2.5", s.Mean)
	}
	if s.Min != 2 || s.Max != 6 {
		t.Fatalf("extrema = (%g, %g), want (2, 6)", s.Min, s.Max)
	}
}

// TestGaugeFinishIdempotentWindow checks that closing a gauge's window
// leaves the live gauge untouched: closing it twice at the horizon, or
// recording the horizon with Finish in between, reads the same mean.
func TestGaugeFinishIdempotentWindow(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g").Set(0, 5)
	if got := r.Snapshot(2).Gauges[0].Mean; math.Abs(got-5) > 1e-12 {
		t.Fatalf("constant signal mean = %g, want 5", got)
	}
	r.Finish(2)
	if got := r.Snapshot(2).Gauges[0].Mean; math.Abs(got-5) > 1e-12 {
		t.Fatalf("after Finish mean = %g, want 5", got)
	}
}

func TestHistQuantilesAndMean(t *testing.T) {
	r := NewRegistry()
	h := r.Hist("h")
	// Depth 0 on [0,6), depth 3 on [6,8), depth 1 on [8,10). Horizon 10.
	h.Observe(0, 0)
	h.Observe(6, 3)
	h.Observe(8, 1)
	s := r.Snapshot(10).Hists[0]
	// Weights: 0 -> 6, 3 -> 2, 1 -> 2. Mean = (0*6 + 3*2 + 1*2)/10 = 0.8.
	if got := s.Mean(); math.Abs(got-0.8) > 1e-12 {
		t.Fatalf("mean = %g, want 0.8", got)
	}
	if q := s.Quantile(0.5); q != 0 {
		t.Fatalf("p50 = %d, want 0 (60%% of time at depth 0)", q)
	}
	if q := s.Quantile(0.95); q != 3 {
		t.Fatalf("p95 = %d, want 3", q)
	}
	if q := s.Quantile(1.0); q != 3 {
		t.Fatalf("max = %d, want 3", q)
	}
}

// TestAttachChains verifies Attach wraps pre-existing subscribers instead of
// replacing them, for every hook on the bus.
func TestAttachChains(t *testing.T) {
	rt := &core.Runtime{}
	var hits []string
	note := func(s string) func() { return func() { hits = append(hits, s) } }
	p, tg, q, d, s, em, dl, f, sp := note("proc"), note("target"), note("depth"),
		note("demand"), note("send"), note("emit"), note("deliver"), note("fault"), note("span")
	rt.Hooks.Process = func(core.ProcRecord) { p() }
	rt.Hooks.Target = func(core.TargetRecord) { tg() }
	rt.Hooks.QueueDepth = func(core.QueueDepthRecord) { q() }
	rt.Hooks.Demand = func(core.DemandRecord) { d() }
	rt.Hooks.Send = func(core.SendRecord) { s() }
	rt.Hooks.Emit = func(core.EmitRecord) { em() }
	rt.Hooks.Deliver = func(core.DeliverRecord) { dl() }
	rt.Hooks.Fault = func(core.FaultRecord) { f() }
	rt.Hooks.Span = func(core.SpanRecord) { sp() }

	r := NewRegistry()
	r.Attach(rt)

	rt.Hooks.Process(core.ProcRecord{Filter: "f", Kind: 0, Start: 0, End: 1})
	rt.Hooks.Target(core.TargetRecord{Filter: "f", Worker: "w", At: 1, Target: 2})
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "f", Queue: "in0", At: 1, Depth: 3})
	rt.Hooks.Demand(core.DemandRecord{Filter: "f", At: 1, Event: core.DemandIssued})
	rt.Hooks.Send(core.SendRecord{Stream: "a->b", TaskID: 1, Bytes: 8, At: 1})
	rt.Hooks.Emit(core.EmitRecord{Stream: "a->b", Filter: "a", TaskID: 1, Bytes: 8, At: 0.5})
	rt.Hooks.Deliver(core.DeliverRecord{Stream: "a->b", Filter: "b", TaskID: 1, At: 1.5})
	rt.Hooks.Fault(core.FaultRecord{Kind: "slow", Phase: "begin", At: 1})
	rt.Hooks.Span(core.SpanRecord{Filter: "f", Worker: "w", Start: 0, End: 1, Bytes: 4})

	want := []string{"proc", "target", "depth", "demand", "send", "emit", "deliver", "fault", "span"}
	if len(hits) != len(want) {
		t.Fatalf("chained subscribers fired %v, want %v", hits, want)
	}
	for i := range want {
		if hits[i] != want[i] {
			t.Fatalf("chained subscribers fired %v, want %v", hits, want)
		}
	}
	if c := r.counters["events_processed{filter=f,inst=0,dev=CPU}"]; c == nil || c.N != 1 {
		t.Fatalf("registry did not record the process event: %+v", r.counters)
	}
}

// TestSummaryAndJSONDeterministic replays the same synthetic event stream
// into two registries and requires byte-identical renderings.
func TestSummaryAndJSONDeterministic(t *testing.T) {
	build := func() *Registry {
		rt := &core.Runtime{}
		r := NewRegistry()
		r.Attach(rt)
		rt.Hooks.Process(core.ProcRecord{Filter: "nbia", Instance: 0, Kind: 1, Start: 0, End: 0.5})
		rt.Hooks.Process(core.ProcRecord{Filter: "nbia", Instance: 1, Kind: 0, Start: 0, End: 0.25})
		rt.Hooks.Target(core.TargetRecord{Filter: "nbia", Instance: 0, Worker: "w0", At: 0.1, Target: 4})
		rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "nbia", Instance: 0, Queue: "in0", At: 0.2, Depth: 2})
		rt.Hooks.Demand(core.DemandRecord{Filter: "nbia", Instance: 0, Worker: "w0", At: 0.2, Event: core.DemandData, Outstanding: 3})
		rt.Hooks.Send(core.SendRecord{Stream: "reader->nbia", FromInstance: 0, ToInstance: 1, TaskID: 7, Bytes: 1024, At: 0.3})
		rt.Hooks.Send(core.SendRecord{Stream: "reader->nbia", FromInstance: 0, ToInstance: 0, TaskID: 8, Bytes: 1024, At: 0.35, Push: true})
		rt.Hooks.Fault(core.FaultRecord{Kind: "crash", Phase: "crash", At: 0.4, Node: 1, Filter: "nbia", Instance: 1})
		rt.Hooks.Span(core.SpanRecord{Filter: "nbia", Instance: 0, Worker: "w0", NodeID: 0, Kind: 0, Start: 0.1, End: 0.2, Bytes: 512})
		r.Finish(sim.Time(1.0))
		return r
	}
	a, b := build(), build()
	sa, sb := a.Summary(), b.Summary()
	if sa != sb {
		t.Fatalf("summaries differ:\n%s\n---\n%s", sa, sb)
	}
	ja, err := a.JSON()
	if err != nil {
		t.Fatal(err)
	}
	jb, err := b.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ja, jb) {
		t.Fatalf("JSON renderings differ:\n%s\n---\n%s", ja, jb)
	}
	for _, want := range []string{
		"events_processed{filter=nbia,inst=0,dev=GPU}",
		"stream_sends{stream=reader->nbia,inst=0,mode=push}",
		"faults{kind=crash,phase=crash}",
		"dqaa_target{filter=nbia,inst=0,worker=w0}",
		"queue_depth{filter=nbia,inst=0,queue=in0}",
		"xfer_busy_s{filter=nbia,inst=0,node=0,kind=h2d}",
	} {
		if !strings.Contains(string(ja), want) {
			t.Errorf("JSON missing key %q", want)
		}
		if !strings.Contains(sa, want) {
			t.Errorf("summary missing key %q", want)
		}
	}
}

// TestRegistryHooksAllocFree requires every hook to allocate nothing once
// its label tuple has been seen: the metric keys are formatted on the
// tuple's first event only.
func TestRegistryHooksAllocFree(t *testing.T) {
	rt := &core.Runtime{}
	NewRegistry().Attach(rt)
	hooks := map[string]func(){
		"Process": func() {
			rt.Hooks.Process(core.ProcRecord{Filter: "serve", Instance: 1, Kind: 1, Start: 0, End: 1})
		},
		"Demand": func() {
			rt.Hooks.Demand(core.DemandRecord{Filter: "serve", Instance: 1, Input: 0, Event: core.DemandEmpty})
		},
		"Send": func() {
			rt.Hooks.Send(core.SendRecord{Stream: "gateway->serve", FromInstance: 0, Bytes: 8, Push: true})
		},
		"Deliver": func() {
			rt.Hooks.Deliver(core.DeliverRecord{Stream: "gateway->serve", Filter: "serve", Instance: 1})
		},
		"Emit": func() {
			rt.Hooks.Emit(core.EmitRecord{Stream: "gateway->serve", Filter: "gateway", TaskID: 3})
		},
		"QueueDepth": func() {
			rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "gateway", Queue: "send", At: 1, Depth: 4})
		},
		"Span": func() {
			rt.Hooks.Span(core.SpanRecord{Filter: "serve", Instance: 1, NodeID: 1, Start: 0, End: 1, Bytes: 64})
		},
		"Target": func() {
			rt.Hooks.Target(core.TargetRecord{Filter: "serve", Instance: 1, Worker: "g0", At: 1, Target: 3})
		},
	}
	for name, hook := range hooks {
		hook()
		if n := testing.AllocsPerRun(100, hook); n != 0 {
			t.Errorf("%s hook allocates %v times per repeated event, want 0", name, n)
		}
	}
}
