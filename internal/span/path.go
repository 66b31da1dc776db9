package span

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// Seg is one segment of the critical path: a contiguous slice of virtual
// time attributed to one span kind of one buffer's journey. Consecutive
// segments abut exactly (Start of segment i+1 equals End of segment i), the
// first segment starts at time 0 and the last ends at the makespan — the
// conservation property the span_test property tests pin down.
type Seg struct {
	Task   uint64
	Kind   Kind
	Start  sim.Time
	End    sim.Time
	Filter string
	// Instance is the transparent copy the segment is attributed to, or -1
	// for segments that belong to no single copy (network transfers).
	Instance int
	// Device is the device class the segment occupied: "CPU" or "GPU" for
	// service/kernel time, "pcie" for copies, "net" for transfers, "-" for
	// pure waits.
	Device string
}

// Dur returns the segment's duration.
func (s Seg) Dur() sim.Time { return s.End - s.Start }

// Hop summarizes one buffer of the critical path's lineage chain, in causal
// order (root source buffer first).
type Hop struct {
	Task     uint64
	Parent   uint64
	Stream   string
	Producer string
	Consumer string
	Instance int
	Device   string
	NodeID   int
	Bytes    int64
	// Start and End bound the hop's share of the critical path.
	Start sim.Time
	End   sim.Time
}

// Attribution is the result of critical-path extraction over the collected
// lineages: the makespan decomposed into typed, attributed segments.
type Attribution struct {
	Makespan sim.Time
	// Origin is the left edge of the tiling window: 0 for a batch run
	// (Build), the admission instant of the request root for a
	// per-request attribution (BuildRequest). The path tiles
	// [Origin, Makespan].
	Origin sim.Time
	// Buffers and Processed count tracked task IDs and how many of them
	// completed a handler; for a per-request attribution both count only
	// the request's own lineage.
	Buffers   int
	Processed int
	// FinalTask is the buffer whose handler completion set the makespan.
	FinalTask uint64
	// Path is the critical path: contiguous segments tiling
	// [Origin, Makespan].
	Path []Seg
	// Hops is the lineage chain the path follows, root first.
	Hops []Hop
}

// PathLen returns the summed duration of the path's segments.
func (a *Attribution) PathLen() sim.Time {
	var d sim.Time
	for _, s := range a.Path {
		d += s.Dur()
	}
	return d
}

// PathEnd returns the end time of the last segment (0 for an empty path).
func (a *Attribution) PathEnd() sim.Time {
	if len(a.Path) == 0 {
		return 0
	}
	return a.Path[len(a.Path)-1].End
}

// Coverage returns the critical path's share of the tiling window
// [Origin, Makespan], in percent. It is 100 whenever the window's end was
// set by buffer processing; a shortfall means the tail of the window
// (e.g. drain after the last handler) is not attributable to any buffer.
// Batch attributions have Origin 0, so this is their share of the
// makespan; per-request attributions measure against the request's own
// [inject, complete] window — the fix for open-system runs, where
// measuring idle gateway time before the arrival against the whole run
// would mis-attribute it.
func (a *Attribution) Coverage() float64 {
	if a.Makespan <= a.Origin || len(a.Path) == 0 {
		return 0
	}
	return float64(a.PathEnd()-a.Path[0].Start) / float64(a.Makespan-a.Origin) * 100
}

// Build extracts the critical path for a finished run. makespan is the
// run's completion time (core.Result.Makespan); the path is walked
// backward from the last-delivered buffer — the processed buffer with the
// latest handler completion, ties broken toward the smallest task ID —
// through the parent lineage links to a source-born buffer.
func (c *Collector) Build(makespan sim.Time) (*Attribution, error) {
	var final *Buffer
	processed := 0
	for _, id := range c.order {
		b := c.bufs[id]
		if b == nil || !b.Processed { // nil: forgotten
			continue
		}
		processed++
		if final == nil || b.End > final.End || (b.End == final.End && b.ID < final.ID) {
			final = b
		}
	}
	if final == nil {
		return nil, errors.New("span: no processed buffer collected")
	}

	chain, err := c.lineageChain(final, 0, len(c.bufs))
	if err != nil {
		return nil, err
	}

	a := &Attribution{
		Makespan:  makespan,
		Buffers:   len(c.bufs),
		Processed: processed,
		FinalTask: final.ID,
	}
	assemble(a, chain)
	return a, nil
}

// lineageChain walks backward from final through the parent links, then
// reverses into causal order. The walk stops at a source-born buffer
// (Parent 0), at stop (a per-request root), or at a parent the collector
// never saw complete (defensive: truncated capture). limit bounds the walk
// against lineage cycles.
func (c *Collector) lineageChain(final *Buffer, stop uint64, limit int) ([]*Buffer, error) {
	var chain []*Buffer
	for b := final; b != nil; {
		chain = append(chain, b)
		if len(chain) > limit {
			return nil, errors.New("span: lineage cycle")
		}
		if b.ID == stop || b.Parent == 0 {
			break
		}
		p := c.bufs[b.Parent]
		if p == nil || !p.Processed {
			break
		}
		b = p
	}
	for i, j := 0, len(chain)-1; i < j; i, j = i+1, j-1 {
		chain[i], chain[j] = chain[j], chain[i]
	}
	return chain, nil
}

// assemble tiles the chain's segments over [a.Origin, ...), appending one
// Hop per buffer.
func assemble(a *Attribution, chain []*Buffer) {
	cur := a.Origin
	for _, b := range chain {
		hopStart := cur
		cur = appendHop(a, b, cur)
		a.Hops = append(a.Hops, Hop{
			Task:     b.ID,
			Parent:   b.Parent,
			Stream:   b.Stream,
			Producer: b.Producer,
			Consumer: b.Consumer,
			Instance: b.ConsumerInst,
			Device:   b.Device.String(),
			NodeID:   b.NodeID,
			Bytes:    b.Bytes,
			Start:    hopStart,
			End:      cur,
		})
	}
}

// BuildRequest extracts the critical path of one open-system request: the
// lineage rooted at the admitted task root, tiled over exactly
// [inject, complete] — inject being the admission instant the Admit hook
// recorded and complete the handler-completion instant of the request's
// last-finishing processed descendant (ties toward the smallest task ID).
// Unlike Build, which assumes the batch tiling [0, makespan], the window
// belongs to the request alone: idle time before the arrival is not
// attributed to it. Conservation per request is exact: the path's first
// segment starts at Origin and its last ends at Makespan.
func (c *Collector) BuildRequest(root uint64) (*Attribution, error) {
	origin, ok := c.inject[root]
	if !ok {
		return nil, fmt.Errorf("span: task %d was not admitted as a request root", root)
	}
	// The request's lineage: everything reachable from the root. The visit
	// order does not matter: final is the (End, ID) maximum.
	var final *Buffer
	members, processed := 0, 0
	queue := []uint64{root}
	seen := map[uint64]bool{root: true}
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		members++
		if b := c.bufs[id]; b != nil && b.Processed {
			processed++
			if final == nil || b.End > final.End || (b.End == final.End && b.ID < final.ID) {
				final = b
			}
		}
		for _, k := range c.kids[id] {
			if !seen[k] {
				seen[k] = true
				queue = append(queue, k)
			}
		}
	}
	if final == nil {
		return nil, fmt.Errorf("span: request %d has no processed buffer", root)
	}
	chain, err := c.lineageChain(final, root, members)
	if err != nil {
		return nil, err
	}
	a := &Attribution{
		Makespan:  final.End,
		Origin:    origin,
		Buffers:   members,
		Processed: processed,
		FinalTask: final.ID,
	}
	assemble(a, chain)
	return a, nil
}

// appendHop appends buffer b's segments to the path, starting at time from
// (the previous hop's end — for handler forwards, exactly the parent's
// completion instant). Construction is monotone-clamped: each candidate
// boundary extends the path only if it moves time forward, so whatever the
// hook stream recorded (including re-sends absorbed by crash recovery), the
// resulting segments abut exactly and never overlap.
func appendHop(a *Attribution, b *Buffer, from sim.Time) sim.Time {
	cur := from
	add := func(k Kind, end sim.Time, filter string, inst int, dev string) {
		if end > cur {
			a.Path = append(a.Path, Seg{
				Task: b.ID, Kind: k, Start: cur, End: end,
				Filter: filter, Instance: inst, Device: dev,
			})
			cur = end
		}
	}

	// Before the emit: either the source had not generated the buffer yet
	// (lazy generation waiting on demand), or — for resubmissions and
	// crash-recovery re-enqueues — a control handoff was in flight.
	pre := Source
	if b.Parent != 0 {
		pre = Handoff
	}
	if b.HaveEmit {
		add(pre, b.Emit, b.Producer, b.ProducerInst, "-")
	}
	if b.HaveSent {
		add(Queue, b.Sent, b.Producer, b.ProducerInst, "-")
	}
	if b.HaveDeliver {
		add(Net, b.Deliver, b.Stream, -1, "net")
	}
	add(InQueue, b.Start, b.Consumer, b.ConsumerInst, "-")

	// The service window [b.Start, b.End]. CPU handlers are one service
	// span; GPU handlers decompose into the transfer-pipeline spans the
	// executor reported, with the remainder of the window as device wait
	// (the buffer sat in the batch while pipeline siblings held the device
	// or the link).
	xs := clipSpans(b)
	if len(xs) == 0 {
		add(Service, b.End, b.Consumer, b.ConsumerInst, b.Device.String())
		return cur
	}
	dev := b.Device.String()
	for _, x := range xs {
		add(DevWait, x.Start, b.Consumer, b.ConsumerInst, dev)
		k, d := Kernel, dev
		switch {
		case x.Kind.String() == "h2d":
			k, d = H2D, "pcie"
		case x.Kind.String() == "d2h":
			k, d = D2H, "pcie"
		}
		add(k, x.End, b.Consumer, b.ConsumerInst, d)
	}
	add(DevWait, b.End, b.Consumer, b.ConsumerInst, dev)
	return cur
}

// clipSpans returns b's transfer-pipeline spans clipped to the service
// window [b.Start, b.End], sorted by start time. Spans wholly outside the
// window — pipeline attempts aborted by a crash before the recorded
// (final) processing — are dropped.
func clipSpans(b *Buffer) []XSpan {
	if len(b.X) == 0 {
		return nil
	}
	xs := make([]XSpan, 0, len(b.X))
	for _, x := range b.X {
		if x.End <= b.Start || x.Start >= b.End {
			continue
		}
		if x.Start < b.Start {
			x.Start = b.Start
		}
		if x.End > b.End {
			x.End = b.End
		}
		xs = append(xs, x)
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].Start != xs[j].Start {
			return xs[i].Start < xs[j].Start
		}
		if xs[i].End != xs[j].End {
			return xs[i].End < xs[j].End
		}
		return xs[i].Kind < xs[j].Kind
	})
	return xs
}

// Slice is one row of an aggregate breakdown: a key's summed share of the
// critical path.
type Slice struct {
	Key  string
	Dur  sim.Time
	Segs int
	// Pct is Dur as a percentage of the critical path's length.
	Pct float64
}

// breakdown aggregates the path by an arbitrary key, sorted by descending
// duration (ties toward the lexically smaller key) for stable rendering.
func (a *Attribution) breakdown(key func(Seg) string) []Slice {
	idx := make(map[string]int)
	var out []Slice
	for _, s := range a.Path {
		k := key(s)
		i, ok := idx[k]
		if !ok {
			i = len(out)
			idx[k] = i
			out = append(out, Slice{Key: k})
		}
		out[i].Dur += s.Dur()
		out[i].Segs++
	}
	total := a.PathLen()
	for i := range out {
		if total > 0 {
			out[i].Pct = float64(out[i].Dur) / float64(total) * 100
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Dur != out[j].Dur {
			return out[i].Dur > out[j].Dur
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// ByKind returns the critical path broken down by span kind.
func (a *Attribution) ByKind() []Slice {
	return a.breakdown(func(s Seg) string { return s.Kind.String() })
}

// ByDevice returns the critical path broken down by device class.
func (a *Attribution) ByDevice() []Slice {
	return a.breakdown(func(s Seg) string { return s.Device })
}

// ByFilter returns the critical path broken down by the filter (or stream,
// for network segments) each segment is attributed to.
func (a *Attribution) ByFilter() []Slice {
	return a.breakdown(func(s Seg) string { return s.Filter })
}

// Bottleneck is one row of the top-K bottleneck-buffer table: a lineage hop
// ranked by its share of the critical path.
type Bottleneck struct {
	Task   uint64
	Filter string
	Device string
	Dur    sim.Time
	Pct    float64
	// Kinds is the hop's per-kind decomposition, by descending duration.
	Kinds []Slice
}

// Bottlenecks returns the top k hops of the critical path by duration
// (ties toward the earlier hop).
func (a *Attribution) Bottlenecks(k int) []Bottleneck {
	total := a.PathLen()
	rows := make([]Bottleneck, 0, len(a.Hops))
	for _, h := range a.Hops {
		b := Bottleneck{Task: h.Task, Filter: h.Consumer, Device: h.Device, Dur: h.End - h.Start}
		if total > 0 {
			b.Pct = float64(b.Dur) / float64(total) * 100
		}
		kidx := make(map[Kind]int)
		for _, s := range a.Path {
			if s.Task != h.Task || s.Start < h.Start || s.End > h.End {
				continue
			}
			i, ok := kidx[s.Kind]
			if !ok {
				i = len(b.Kinds)
				kidx[s.Kind] = i
				b.Kinds = append(b.Kinds, Slice{Key: s.Kind.String()})
			}
			b.Kinds[i].Dur += s.Dur()
			b.Kinds[i].Segs++
		}
		for i := range b.Kinds {
			if b.Dur > 0 {
				b.Kinds[i].Pct = float64(b.Kinds[i].Dur) / float64(b.Dur) * 100
			}
		}
		sort.SliceStable(b.Kinds, func(i, j int) bool {
			if b.Kinds[i].Dur != b.Kinds[j].Dur {
				return b.Kinds[i].Dur > b.Kinds[j].Dur
			}
			return b.Kinds[i].Key < b.Kinds[j].Key
		})
		rows = append(rows, b)
	}
	sort.SliceStable(rows, func(i, j int) bool {
		return rows[i].Dur > rows[j].Dur
	})
	if k > 0 && len(rows) > k {
		rows = rows[:k]
	}
	return rows
}
