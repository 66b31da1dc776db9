package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
)

// tracer records spans around the public calls the benchmark makes. It keeps
// them in memory; the program writes them out when it exits. Its methods do
// nothing on a nil tracer, so untraced code paths call them unguarded.
type tracer struct {
	epoch time.Time
	spans []spanRec
	open  []int // indices of the spans not yet ended, innermost last
}

type spanRec struct {
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Parent int     `json:"parent"` // index of the enclosing span, -1 for none
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span inside the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.spans = append(t.spans, spanRec{Name: name, Start: time.Since(t.epoch).Seconds(), Parent: parent})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].End = time.Since(t.epoch).Seconds()
	t.open = t.open[:len(t.open)-1]
}

// durations returns the duration of every span with the given name.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// selfTimes sums, per span name, each span's duration minus the part its
// children cover. The benchmark is single-threaded, so children never
// overlap and their durations add up.
func (t *tracer) selfTimes() map[string]float64 {
	self := map[string]float64{}
	for _, s := range t.spans {
		self[s.Name] += s.End - s.Start
		if s.Parent >= 0 {
			self[t.spans[s.Parent].Name] -= s.End - s.Start
		}
	}
	return self
}

func (t *tracer) summary() string {
	self := t.selfTimes()
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool { return self[names[i]] > self[names[j]] })
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, "  %-28s %10.4f s\n", n, self[n])
	}
	return b.String()
}

func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		Spans []spanRec          `json:"spans"`
		Self  map[string]float64 `json:"self_s"`
	}{t.spans, t.selfTimes()})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// hookCounts is a counting core.Bus subscriber: how often each hook fired.
type hookCounts struct {
	process                                [hw.NumKinds]int64
	demand                                 [4]int64 // by core.DemandEvent
	spans                                  [3]int64 // by xfer.SpanKind
	sends, emits, delivers, depth, targets int64
	admits, faults                         int64
}

// attach installs the counters on a runtime whose bus is still empty, as
// nbia.Config.Hooks hands it over.
func (c *hookCounts) attach(rt *core.Runtime) {
	rt.Hooks = core.Bus{
		Process:    func(r core.ProcRecord) { c.process[r.Kind]++ },
		Target:     func(core.TargetRecord) { c.targets++ },
		QueueDepth: func(core.QueueDepthRecord) { c.depth++ },
		Demand:     func(r core.DemandRecord) { c.demand[r.Event]++ },
		Send:       func(core.SendRecord) { c.sends++ },
		Emit:       func(core.EmitRecord) { c.emits++ },
		Deliver:    func(core.DeliverRecord) { c.delivers++ },
		Fault:      func(core.FaultRecord) { c.faults++ },
		Admit:      func(core.AdmitRecord) { c.admits++ },
		Span:       func(r core.SpanRecord) { c.spans[r.Kind]++ },
	}
}

// events is the number of hook invocations.
func (c *hookCounts) events() int64 {
	n := c.sends + c.emits + c.delivers + c.depth + c.targets + c.admits + c.faults
	for _, v := range c.process {
		n += v
	}
	for _, v := range c.demand {
		n += v
	}
	for _, v := range c.spans {
		n += v
	}
	return n
}

// sampleHeap samples the live Go heap every 2 ms on its own goroutine until
// the returned stop function is called; stop waits for the sampler to exit
// and returns the highest value seen, in MB.
func sampleHeap() (stop func() float64) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	var peak uint64
	s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(s)
		if v := s[0].Value.Uint64(); v > peak {
			peak = v
		}
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				read()
			}
		}
	}()
	return func() float64 {
		close(done)
		wg.Wait()
		read()
		return float64(peak) / mb
	}
}
