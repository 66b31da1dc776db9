package serve

import (
	"fmt"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/obs"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/span"
	"repro/internal/task"
)

// Per-request service costs: every request costs CPUCost on a CPU worker
// and GPUCost on a GPU worker.
const (
	CPUCost = sim.Millisecond
	GPUCost = 300 * sim.Microsecond
)

// Capacity is the aggregate service rate, in requests per second, of a
// serve filter placed on nodes nodes, gpuNodes of them with a GPU: one CPU
// worker per node plus one GPU worker per GPU node.
func Capacity(nodes, gpuNodes int) float64 {
	return float64(nodes)/CPUCost.Seconds() + float64(gpuNodes)/GPUCost.Seconds()
}

// Pool is one pipeline's private two-node pool: a CPU-only node and a GPU
// node, two cores each.
func Pool() []hw.NodeSpec {
	return []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2, HasGPU: true}}
}

// Pipeline describes one gateway→serve pipeline.
type Pipeline struct {
	// Suffix names the filters: "" gives "gateway" and "serve", "odds"
	// gives "gateway-odds" and "serve-odds".
	Suffix string
	// Gateway is the gateway's node; Placement lists the serve filter's
	// nodes.
	Gateway   int
	Placement []int
	// QueueLimit bounds the gateway's send queue; past it the gateway
	// sheds arrivals instead of queueing them.
	QueueLimit int
	Policy     policy.StreamPolicy
	// Times are the arrival instants.
	Times []sim.Time
	// Weighted gives every request CPU/GPU speedup weights (1 and
	// CPUCost/GPUCost), so weight-driven policies and schedulers see the
	// GPU's advantage.
	Weighted bool
}

// filterNames returns the gateway and serve filter names for a suffix.
func filterNames(suffix string) (gateway, serve string) {
	if suffix == "" {
		return "gateway", "serve"
	}
	return "gateway-" + suffix, "serve-" + suffix
}

// Build adds the pipeline to rt: an Open gateway filter with admission
// control, a serve filter with one CPU and one GPU worker per node and a
// no-op handler, the stream between them, and the arrival process. Every
// request carries 8 KiB in and 1 KiB out. The returned stats fill in as the
// run admits and sheds requests.
func Build(rt *core.Runtime, p Pipeline) *arrival.Stats {
	gwName, srvName := filterNames(p.Suffix)
	gw := rt.AddFilter(core.FilterSpec{
		Name: gwName, Placement: []int{p.Gateway},
		Open: true, QueueLimit: p.QueueLimit,
	})
	srv := rt.AddFilter(core.FilterSpec{
		Name: srvName, Placement: p.Placement,
		CPUWorkers: 1, UseGPU: true, GPUWorkers: 1,
		Handler: func(ctx *core.Ctx, tk *task.Task) core.Action { return core.Action{} },
	})
	rt.Connect(gw, srv, p.Policy)
	return arrival.Drive(rt, gw, p.Times, func(int) *task.Task {
		t := &task.Task{Size: 8 << 10, OutSize: 1 << 10, Cost: requestCost}
		if p.Weighted {
			t.Weight[hw.CPU] = 1
			t.Weight[hw.GPU] = float64(CPUCost) / float64(GPUCost)
			t.ComputeKeys()
		}
		return t
	})
}

func requestCost(_ *task.Task, k hw.Kind) sim.Time {
	if k == hw.GPU {
		return GPUCost
	}
	return CPUCost
}

// Request is the stage breakdown of one served request: admitted at the
// gateway, delivered to a serve replica, serviced Start..End on Node's
// Kind device.
type Request struct {
	Task                       uint64
	Node                       int
	Kind                       hw.Kind
	Admit, Deliver, Start, End sim.Time
}

// Latency is the request's end-to-end latency, admission to completion.
func (r Request) Latency() sim.Time { return r.End - r.Admit }

// String renders the stage breakdown in milliseconds.
func (r Request) String() string {
	ms := func(t sim.Time) float64 { return float64(t) / float64(sim.Millisecond) }
	return fmt.Sprintf("task %d via serve/%d (%s): total %.3f ms = gateway %.3f + wait %.3f + service %.3f",
		r.Task, r.Node, r.Kind, ms(r.Latency()),
		ms(r.Deliver-r.Admit), ms(r.Start-r.Deliver), ms(r.End-r.Start))
}

// Sink measures one pipeline from the runtime's hook bus: each request's
// admit→deliver→process stages, latency percentiles, SLO violations, the
// gateway's send-queue depth, and the worst violator. It audits exactly-once
// service without a per-request history: a request's admit and deliver
// entries are dropped when it is served, so a second completion of the same
// request finds none and counts as an orphan. With a span collector it
// also keeps the collector request-scoped: a served request's lineage is
// forgotten unless it is the worst violator, which is kept until a worse
// one replaces it.
type Sink struct {
	gateway, serve string
	slo            sim.Time
	col            *span.Collector

	admitAt, deliverAt map[uint64]sim.Time

	// Latency is the cumulative admit→process latency sketch, in seconds.
	Latency *obs.Sketch
	// Served counts requests served; Violations those past the SLO.
	Served, Violations int
	// Orphans counts serve completions with no pending admission: a
	// request served twice, or one the gateway never admitted.
	Orphans int
	// Depth and MaxDepth are the gateway send queue's current and peak
	// depth.
	Depth, MaxDepth int

	worst      Request
	worstDirty bool // a new worst arrived since its lineage was last built
	worstInfo  WorstInfo

	// OnShed and OnServed, when set, see every shed admission and every
	// served request after the sink has recorded it.
	OnShed   func(core.AdmitRecord)
	OnServed func(Request)
}

// NewSink returns a sink for pipeline p that audits requests against slo.
// col, if non-nil, is the span collector the worst violator's lineage is
// built from; attach it after the sink.
func NewSink(p Pipeline, slo sim.Time, col *span.Collector) *Sink {
	gw, srv := filterNames(p.Suffix)
	return &Sink{
		gateway: gw, serve: srv, slo: slo, col: col,
		admitAt:   make(map[uint64]sim.Time),
		deliverAt: make(map[uint64]sim.Time),
		Latency:   obs.NewSketch(obs.DefaultEps),
	}
}

// Attach subscribes the sink to rt's hook bus, chaining the subscribers
// already installed (they fire after the sink's own handler).
func (s *Sink) Attach(rt *core.Runtime) {
	core.Subscribe(&rt.Hooks.Admit, func(r core.AdmitRecord) {
		if r.Filter == s.gateway {
			if r.Accepted {
				s.admitAt[r.TaskID] = r.At
			} else if s.OnShed != nil {
				s.OnShed(r)
			}
		}
	})
	core.Subscribe(&rt.Hooks.QueueDepth, func(r core.QueueDepthRecord) {
		if r.Filter == s.gateway && r.Queue == "send" {
			s.Depth = r.Depth
			if r.Depth > s.MaxDepth {
				s.MaxDepth = r.Depth
			}
		}
	})
	core.Subscribe(&rt.Hooks.Deliver, func(r core.DeliverRecord) {
		if r.Filter == s.serve {
			s.deliverAt[r.TaskID] = r.At
		}
	})
	core.Subscribe(&rt.Hooks.Process, func(r core.ProcRecord) {
		if r.Filter == s.serve {
			s.served(r)
		}
	})
}

// served records one serve completion.
func (s *Sink) served(r core.ProcRecord) {
	at, ok := s.admitAt[r.TaskID]
	if !ok {
		s.Orphans++
		return
	}
	req := Request{Task: r.TaskID, Node: r.NodeID, Kind: r.Kind,
		Admit: at, Deliver: s.deliverAt[r.TaskID], Start: r.Start, End: r.End}
	delete(s.admitAt, r.TaskID)
	delete(s.deliverAt, r.TaskID)
	lat := req.Latency()
	s.Served++
	s.Latency.Add(float64(lat))
	done := req.Task // the lineage Worst will never build
	if lat > s.slo {
		s.Violations++
		if lat > s.worst.Latency() {
			done = s.worst.Task // 0 before the first violator
			s.worst = req
			s.worstDirty = true
		}
	}
	if s.col != nil && done != 0 {
		s.col.Forget(done)
	}
	if s.OnServed != nil {
		s.OnServed(req)
	}
}

// Conserved reports whether every offered request was either admitted or
// shed, and every admitted one served exactly once.
func (s *Sink) Conserved(st *arrival.Stats) bool {
	return s.Orphans == 0 && st.Accepted+st.Rejected == st.Offered && s.Served == st.Accepted
}

// WorstInfo is the attribution of a pipeline's worst SLO violator: its
// stage breakdown plus, when the sink has a span collector, its lineage.
type WorstInfo struct {
	Task      uint64  `json:"task"`
	LatencyMS float64 `json:"latency_ms"`
	Breakdown string  `json:"breakdown"`
	Lineage   string  `json:"lineage,omitempty"`
}

// Worst returns the worst SLO violator so far; ok is false while no request
// has violated the SLO. The breakdown and lineage are rebuilt only when a
// new worst arrived since the last call, so repeated calls cost no graph
// walks.
func (s *Sink) Worst() (w WorstInfo, ok bool) {
	if s.Violations == 0 {
		return WorstInfo{}, false
	}
	if s.worstDirty {
		s.worstDirty = false
		s.worstInfo = WorstInfo{Task: s.worst.Task,
			LatencyMS: float64(s.worst.Latency()) / float64(sim.Millisecond),
			Breakdown: s.worst.String()}
		if s.col != nil {
			if a, err := s.col.BuildRequest(s.worst.Task); err == nil {
				s.worstInfo.Lineage = a.Breakdown()
			}
		}
	}
	return s.worstInfo, true
}
