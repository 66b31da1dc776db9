package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/arrival"
	"repro/internal/core"
	"repro/internal/sim"
)

var update = flag.Bool("update", false, "rewrite the golden files under testdata")

// uniformTimes builds n arrival instants spaced gap apart, starting at 0.
func uniformTimes(n int, gap sim.Time) []sim.Time {
	times := make([]sim.Time, n)
	for i := range times {
		times[i] = sim.Time(i) * gap
	}
	return times
}

// TestManualClockDilationPacing proves the serve loop replays an arrival
// trace at the dilated schedule exactly: every spacing is a binary
// fraction, so wall/dilation arithmetic is exact and each tick must admit
// precisely the arrivals whose instants have been reached — no drift, no
// off-by-one.
func TestManualClockDilationPacing(t *testing.T) {
	const (
		n        = 50
		dilation = 16.0
	)
	gap := sim.Time(1) / 1024   // virtual seconds between arrivals
	tick := sim.Time(16) / 1024 // wall seconds per loop turn: tick/dilation = gap
	e, err := New(Config{Seed: 1, Policies: []string{"odds"}, Times: uniformTimes(n, gap)})
	if err != nil {
		t.Fatal(err)
	}
	clk := &sim.ManualClock{}
	frame := 0
	err = e.Pace(clk, dilation, tick, func(f Frame) bool {
		wantV := float64(frame) * float64(gap)
		if f.VirtualS != wantV && !f.Done {
			t.Fatalf("frame %d: virtual %v, want exactly %v", frame, f.VirtualS, wantV)
		}
		wantOffered := frame + 1
		if wantOffered > n {
			wantOffered = n
		}
		if got := f.Pipes[0].Offered; got != wantOffered {
			t.Fatalf("frame %d (virtual %v): offered %d, want %d", frame, f.VirtualS, got, wantOffered)
		}
		frame++
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	if frame <= n {
		t.Fatalf("loop ended after %d frames, before the %d-arrival schedule drained", frame, n)
	}
	done, err := e.Done()
	if !done || err != nil {
		t.Fatalf("engine not cleanly drained: done=%v err=%v", done, err)
	}
	f := e.Frame()
	p := f.Pipes[0]
	if p.Offered != n || p.Accepted+p.Shed != n || p.Served != p.Accepted {
		t.Fatalf("conservation broken: %+v", p)
	}
}

// overloadTimes offers 1.5x one pipeline's capacity for the given span.
func overloadTimes(span sim.Time) []sim.Time {
	rate := 1.5 * Capacity(2, 1)
	gap := sim.Time(1.0 / rate)
	return uniformTimes(int(float64(span)*rate), gap)
}

// TestMetricsByteDeterministic replays the same configuration twice on a
// fixed ManualClock schedule and requires the full /metrics payload to be
// byte-identical, both mid-run and after drain.
func TestMetricsByteDeterministic(t *testing.T) {
	build := func() *Engine {
		e, err := New(Config{Seed: 7, Times: overloadTimes(50 * sim.Millisecond)})
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	capture := func(e *Engine, v sim.Time) string {
		if _, err := e.Advance(v); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := e.WritePromText(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	a, b := build(), build()
	for _, v := range []sim.Time{10 * sim.Millisecond, 30 * sim.Millisecond, sim.Second} {
		pa, pb := capture(a, v), capture(b, v)
		if pa != pb {
			t.Fatalf("/metrics diverged at virtual %v:\n--- a ---\n%s\n--- b ---\n%s", v, pa, pb)
		}
		if len(pa) == 0 {
			t.Fatalf("empty /metrics at virtual %v", v)
		}
	}
	if done, _ := a.Done(); !done {
		t.Fatal("engine did not drain by 1 virtual second")
	}
}

// TestOverloadViolationsAndLineage drives one pipeline into overload and
// checks the live attribution path: sheds and SLO violations happen, the
// worst violator carries a stage breakdown plus a span lineage, and the
// event ring serves valid JSONL containing both event types.
func TestOverloadViolationsAndLineage(t *testing.T) {
	e, err := New(Config{Seed: 3, Times: overloadTimes(100 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	f := e.Frame()
	if !f.Done {
		t.Fatal("frame not done after full drain")
	}
	for _, p := range f.Pipes {
		if p.Shed == 0 {
			t.Errorf("%s: no sheds at 1.5x load", p.Policy)
		}
		if p.Violations == 0 {
			t.Errorf("%s: no SLO violations at 1.5x load", p.Policy)
			continue
		}
		if p.Worst == nil {
			t.Errorf("%s: violations but no worst-violator info", p.Policy)
			continue
		}
		if !strings.Contains(p.Worst.Breakdown, "gateway") {
			t.Errorf("%s: breakdown missing stage split: %q", p.Policy, p.Worst.Breakdown)
		}
		if p.Worst.Lineage == "" {
			t.Errorf("%s: worst violator has no span lineage", p.Policy)
		}
	}

	var buf bytes.Buffer
	if err := e.EventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		seen[ev.Type]++
	}
	if seen["shed"] == 0 || seen["slo_violation"] == 0 {
		t.Fatalf("event ring missing types: %v", seen)
	}
}

// TestEventRingBounded checks the ring overwrites oldest entries at the cap.
func TestEventRingBounded(t *testing.T) {
	e, err := New(Config{Seed: 3, EventCap: 8, Times: overloadTimes(100 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Advance(10 * sim.Second); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := e.EventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Count(buf.String(), "\n")
	if lines != 8 {
		t.Fatalf("ring served %d events, want exactly the cap 8", lines)
	}
	// Oldest-first ordering: timestamps non-decreasing.
	var last float64 = -1
	sc := bufio.NewScanner(strings.NewReader(buf.String()))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatal(err)
		}
		if ev.At < last {
			t.Fatalf("ring out of order: %g after %g", ev.At, last)
		}
		last = ev.At
	}
}

// TestDisableSink checks the hook-free benchmarking mode: the simulation
// drains identically (arrival stats still flow), no per-request state is
// recorded, and the read endpoints stay functional instead of panicking.
func TestDisableSink(t *testing.T) {
	e, err := New(Config{Seed: 7, DisableSink: true, Times: overloadTimes(50 * sim.Millisecond)})
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Advance(10 * sim.Second)
	if !done || err != nil {
		t.Fatalf("sink-free engine did not drain: done=%v err=%v", done, err)
	}
	f := e.Frame()
	for _, p := range f.Pipes {
		if p.Offered == 0 || p.Accepted == 0 {
			t.Errorf("%s: arrival stats missing with sink off: %+v", p.Policy, p)
		}
		if p.Served != 0 || p.Violations != 0 || p.WindowCount != 0 {
			t.Errorf("%s: hook-fed state recorded with sink off: %+v", p.Policy, p)
		}
	}
	var buf bytes.Buffer
	if err := e.WritePromText(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "anthill_serve_virtual_seconds") {
		t.Fatal("sink-free /metrics missing the serve families")
	}
	if err := e.EventsJSONL(&buf); err != nil {
		t.Fatal(err)
	}
}

// TestUnknownPolicyRejected checks config validation: malformed configs
// return an error from New instead of building a broken engine or
// panicking.
func TestUnknownPolicyRejected(t *testing.T) {
	times := uniformTimes(1, 0)
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"unknown policy", Config{Policies: []string{"lifo"}, Times: times}},
		{"empty schedule", Config{}},
		{"duplicate policy", Config{Policies: []string{"odds", "odds"}, Times: times}},
		{"duplicate policy, mixed case", Config{Policies: []string{"ODDS", "odds"}, Times: times}},
		{"negative event cap", Config{EventCap: -1, Times: times}},
		{"negative window count", Config{Windows: -1, Times: times}},
		{"negative window", Config{Window: -sim.Millisecond, Times: times}},
		{"negative queue limit", Config{QueueLimit: -1, Times: times}},
		{"negative SLO", Config{SLO: -sim.Millisecond, Times: times}},
	} {
		if _, err := New(tc.cfg); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

// TestSinkCountsDuplicateService feeds a sink hand-made hook records: a
// request served twice, and one served without an admission, each count as
// an orphan and break conservation, while the first completion is measured.
func TestSinkCountsDuplicateService(t *testing.T) {
	rt := &core.Runtime{}
	s := NewSink(Pipeline{}, DefaultSLO, nil)
	s.Attach(rt)
	rt.Hooks.Admit(core.AdmitRecord{Filter: "gateway", TaskID: 1, At: 0, Accepted: true})
	rt.Hooks.Deliver(core.DeliverRecord{Filter: "serve", TaskID: 1, At: sim.Millisecond})
	done := core.ProcRecord{Filter: "serve", TaskID: 1, Start: 2 * sim.Millisecond, End: 9 * sim.Millisecond}
	rt.Hooks.Process(done)
	st := &arrival.Stats{Offered: 1, Accepted: 1}
	if s.Served != 1 || s.Violations != 1 || s.Orphans != 0 || !s.Conserved(st) {
		t.Fatalf("first completion: served %d, violations %d, orphans %d", s.Served, s.Violations, s.Orphans)
	}
	if w, ok := s.Worst(); !ok || w.Task != 1 || !strings.Contains(w.Breakdown, "gateway 1.000 + wait 1.000 + service 7.000") {
		t.Fatalf("worst violator %+v (ok %v)", w, ok)
	}
	rt.Hooks.Process(done)
	rt.Hooks.Process(core.ProcRecord{Filter: "serve", TaskID: 2, End: sim.Millisecond})
	if s.Served != 1 || s.Orphans != 2 || s.Conserved(st) {
		t.Fatalf("after duplicate and unadmitted completions: served %d, orphans %d, conserved %v",
			s.Served, s.Orphans, s.Conserved(st))
	}
}

// goldenSpec is the fixed arrival schedule of the golden replay: a Poisson
// stream plus a burst that overloads every pipeline at its crests, so the
// pinned output covers sheds, SLO violations and a worst-violator lineage.
const goldenSpec = "poisson:rate=3000,n=300;burst:rate=3000,n=300,peak=3,period=40ms"

// TestGoldenReplay pins the engine's external output byte-for-byte against
// checked-in files: a fixed schedule replayed on a ManualClock at 100x with
// 1 ms wall ticks, /metrics rendered at frame 40 and after the drain, and
// the final Frame as indented JSON. Regenerate with
// `go test ./internal/serve -run TestGoldenReplay -update` only for an
// intentional change of what the engine reports.
func TestGoldenReplay(t *testing.T) {
	sched, err := arrival.Parse(goldenSpec)
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(Config{Seed: 11, Times: sched.Times(11)})
	if err != nil {
		t.Fatal(err)
	}
	var mid bytes.Buffer
	frames := 0
	err = e.Pace(&sim.ManualClock{}, 100, sim.Millisecond, func(Frame) bool {
		if frames++; frames == 40 {
			if err := e.WritePromText(&mid); err != nil {
				t.Fatal(err)
			}
		}
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	var final bytes.Buffer
	if err := e.WritePromText(&final); err != nil {
		t.Fatal(err)
	}
	frame, err := json.MarshalIndent(e.Frame(), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	for name, got := range map[string][]byte{
		"replay_mid.prom":   mid.Bytes(),
		"replay_final.prom": final.Bytes(),
		"replay_frame.json": append(frame, '\n'),
	} {
		path := filepath.Join("testdata", name)
		if *update {
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s differs from the golden file (%d vs %d bytes)", path, len(got), len(want))
		}
	}
}
