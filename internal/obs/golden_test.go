package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// goldenRegistry replays a fixed synthetic event stream covering every
// aggregate type, including the emit/deliver counters the lineage hooks
// feed.
func goldenRegistry() *Registry {
	rt := &core.Runtime{}
	r := NewRegistry()
	r.Attach(rt)
	rt.Hooks.Process(core.ProcRecord{Filter: "sink", Instance: 0, Kind: 1, Start: 0, End: 0.5})
	rt.Hooks.Process(core.ProcRecord{Filter: "sink", Instance: 1, Kind: 0, Start: 0.1, End: 0.35})
	rt.Hooks.Target(core.TargetRecord{Filter: "sink", Instance: 0, Worker: "g0", At: 0.1, Target: 4})
	rt.Hooks.Target(core.TargetRecord{Filter: "sink", Instance: 0, Worker: "g0", At: 0.6, Target: 2})
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "sink", Instance: 0, Queue: "in0", At: 0.2, Depth: 2})
	rt.Hooks.QueueDepth(core.QueueDepthRecord{Filter: "sink", Instance: 0, Queue: "in0", At: 0.7, Depth: 0})
	rt.Hooks.Demand(core.DemandRecord{Filter: "sink", Instance: 0, Worker: "g0", At: 0.2, Event: core.DemandData, Outstanding: 3})
	rt.Hooks.Send(core.SendRecord{Stream: "src->sink", FromInstance: 0, ToInstance: 1, TaskID: 7, Bytes: 1024, At: 0.3})
	rt.Hooks.Emit(core.EmitRecord{Stream: "src->sink", Filter: "src", Instance: 0, TaskID: 7, Bytes: 1024, At: 0.25})
	rt.Hooks.Deliver(core.DeliverRecord{Stream: "src->sink", Filter: "sink", Instance: 1, TaskID: 7, At: 0.32})
	rt.Hooks.Deliver(core.DeliverRecord{Stream: "src->sink", Filter: "sink", Instance: 0, TaskID: 8, At: 0.4, Push: true})
	rt.Hooks.Fault(core.FaultRecord{Kind: "net", Phase: "begin", At: 0.45, Node: 1})
	rt.Hooks.Span(core.SpanRecord{Filter: "sink", Instance: 0, Worker: "g0", NodeID: 1, Kind: 0, Start: 0.1, End: 0.2, Bytes: 512})
	rt.Hooks.Span(core.SpanRecord{Filter: "sink", Instance: 0, Worker: "g0", NodeID: 1, Kind: 1, Start: 0.2, End: 0.4})
	r.Finish(sim.Time(1.0))
	return r
}

// TestJSONGolden pins the registry's JSON rendering byte-for-byte against
// a checked-in golden file. Regenerate deliberately with
// go test ./internal/obs -run TestJSONGolden -update.
func TestJSONGolden(t *testing.T) {
	raw, err := goldenRegistry().JSON()
	if err != nil {
		t.Fatal(err)
	}
	simtest.GoldenBytes(t, filepath.Join("testdata", "registry_golden.json"), raw)
}

// TestJSONKeyOrderStable asserts the raw JSON bytes list metric keys in
// sorted order within each section — the property that makes artifact
// diffs reviewable.
func TestJSONKeyOrderStable(t *testing.T) {
	raw, err := goldenRegistry().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	for _, section := range []string{"counters", "gauges", "hists"} {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(doc[section], &m); err != nil {
			t.Fatalf("%s: %v", section, err)
		}
		if len(m) == 0 {
			t.Fatalf("%s section is empty", section)
		}
		// Recover the keys' byte positions in the raw document.
		type pos struct {
			key string
			at  int
		}
		var ps []pos
		for k := range m {
			needle := []byte(fmt.Sprintf("%q", k))
			at := bytes.Index(raw, needle)
			if at < 0 {
				t.Fatalf("%s key %q not found literally in JSON", section, k)
			}
			ps = append(ps, pos{k, at})
		}
		sort.Slice(ps, func(i, j int) bool { return ps[i].at < ps[j].at })
		for i := 1; i < len(ps); i++ {
			if ps[i-1].key >= ps[i].key {
				t.Errorf("%s keys out of order in raw JSON: %q before %q",
					section, ps[i-1].key, ps[i].key)
			}
		}
	}
}

// TestSummaryJSONRoundTrip decodes the JSON document and checks that every
// counter, gauge and histogram value agrees with what Summary() prints —
// the two renderings must describe the same aggregates.
func TestSummaryJSONRoundTrip(t *testing.T) {
	r := goldenRegistry()
	raw, err := r.JSON()
	if err != nil {
		t.Fatal(err)
	}
	sum := r.Summary()
	var doc struct {
		HorizonS float64 `json:"horizon_s"`
		Counters map[string]struct {
			N   int64   `json:"n"`
			Sum float64 `json:"sum"`
		} `json:"counters"`
		Gauges map[string]struct {
			Last float64 `json:"last"`
			Mean float64 `json:"mean"`
			Min  float64 `json:"min"`
			Max  float64 `json:"max"`
		} `json:"gauges"`
		Hists map[string]struct {
			Mean float64 `json:"mean"`
			P50  int     `json:"p50"`
			P95  int     `json:"p95"`
			Max  int     `json:"max"`
		} `json:"hists"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.HorizonS != 1.0 {
		t.Fatalf("horizon_s = %v, want 1", doc.HorizonS)
	}
	// Gauges and histograms share metric keys, so rows must be looked up
	// within their own "### ..." section of the summary.
	section := func(title string) string {
		i := strings.Index(sum, "### "+title)
		if i < 0 {
			t.Fatalf("summary has no section %q", title)
		}
		rest := sum[i+4:]
		if j := strings.Index(rest, "### "); j >= 0 {
			rest = rest[:j]
		}
		return rest
	}
	rowIn := func(sec, key string) string {
		for _, line := range strings.Split(sec, "\n") {
			if strings.Contains(line, key+" ") || strings.Contains(line, key+"|") {
				return line
			}
		}
		t.Fatalf("summary has no row for %q", key)
		return ""
	}
	if len(doc.Counters) == 0 || len(doc.Gauges) == 0 || len(doc.Hists) == 0 {
		t.Fatal("JSON document missing sections")
	}
	counterSec := section("Counters")
	gaugeSec := section("Gauges (time-weighted)")
	histSec := section("Histograms (time-weighted)")
	for k, c := range doc.Counters {
		line := rowIn(counterSec, k)
		for _, cell := range []string{fmt.Sprintf("%d", c.N), fmtF(c.Sum)} {
			if !strings.Contains(line, cell) {
				t.Errorf("counter %q: summary row %q missing JSON value %q", k, line, cell)
			}
		}
	}
	for k, g := range doc.Gauges {
		line := rowIn(gaugeSec, k)
		for _, cell := range []string{fmtF(g.Last), fmtF(g.Mean), fmtF(g.Min), fmtF(g.Max)} {
			if !strings.Contains(line, cell) {
				t.Errorf("gauge %q: summary row %q missing JSON value %q", k, line, cell)
			}
		}
	}
	for k, h := range doc.Hists {
		line := rowIn(histSec, k)
		for _, cell := range []string{fmtF(h.Mean),
			fmt.Sprintf("%d", h.P50), fmt.Sprintf("%d", h.P95), fmt.Sprintf("%d", h.Max)} {
			if !strings.Contains(line, cell) {
				t.Errorf("hist %q: summary row %q missing JSON value %q", k, line, cell)
			}
		}
	}
	// Expected lineage-hook counters are present.
	for _, want := range []string{
		"stream_emits{stream=src->sink,inst=0}",
		"stream_delivers{stream=src->sink,inst=1,mode=demand}",
		"stream_delivers{stream=src->sink,inst=0,mode=push}",
	} {
		if _, ok := doc.Counters[want]; !ok {
			t.Errorf("JSON missing lineage counter %q", want)
		}
	}
}
