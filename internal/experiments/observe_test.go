package experiments

import (
	"bytes"
	"encoding/json"
	"testing"
)

// parseTrace unmarshals a capture's Chrome trace and returns its events.
func parseTrace(t *testing.T, raw []byte) []map[string]any {
	t.Helper()
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("capture trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("capture trace has no events")
	}
	return doc.TraceEvents
}

func TestFig7CaptureHasRequiredTracks(t *testing.T) {
	cap := RunCapture(Config{Seed: 1}, "fig7")
	if cap == nil {
		t.Fatal("fig7 has no capture")
	}
	events := parseTrace(t, cap.Trace)
	var haveDev, haveInst, haveDQAA, haveDepth bool
	for _, e := range events {
		if e["ph"] == "M" && e["name"] == "thread_name" {
			name := e["args"].(map[string]any)["name"].(string)
			switch name {
			case "dev n1/GPU0":
				haveDev = true
			case "incrementer/0":
				haveInst = true
			}
		}
		if e["ph"] == "C" {
			name := e["name"].(string)
			if len(name) > 4 && name[:4] == "dqaa" {
				haveDQAA = true
			}
			if len(name) > 5 && name[:5] == "queue" {
				haveDepth = true
			}
		}
	}
	if !haveDev || !haveInst || !haveDQAA || !haveDepth {
		t.Fatalf("fig7 capture tracks: device=%v instance=%v dqaa=%v queue=%v",
			haveDev, haveInst, haveDQAA, haveDepth)
	}
	var metrics map[string]any
	if err := json.Unmarshal(cap.Metrics, &metrics); err != nil {
		t.Fatalf("capture metrics is not valid JSON: %v", err)
	}
	for _, section := range []string{"counters", "gauges", "hists"} {
		if m, ok := metrics[section].(map[string]any); !ok || len(m) == 0 {
			t.Fatalf("capture metrics section %q missing or empty", section)
		}
	}
}

func TestChaosCaptureHasFaultEvents(t *testing.T) {
	cap := RunCapture(Config{Seed: 1}, "chaos")
	if cap == nil {
		t.Fatal("chaos has no capture")
	}
	instants := 0
	for _, e := range parseTrace(t, cap.Trace) {
		if e["ph"] == "I" {
			instants++
		}
	}
	if instants == 0 {
		t.Fatal("chaos capture has no fault instant events")
	}
}

// TestCaptureDeterministic re-runs representative captures and requires
// byte-identical artifacts — the contract behind the capture rows of
// scripts/determinism.sh.
func TestCaptureDeterministic(t *testing.T) {
	for _, id := range []string{"fig7", "fig8", "serving", "policylab"} {
		a := RunCapture(Config{Seed: 1}, id)
		b := RunCapture(Config{Seed: 1}, id)
		if !bytes.Equal(a.Trace, b.Trace) {
			t.Errorf("%s: trace bytes differ between same-seed captures", id)
		}
		if !bytes.Equal(a.Metrics, b.Metrics) {
			t.Errorf("%s: metrics bytes differ between same-seed captures", id)
		}
	}
}

// TestCaptureCoverage pins which experiments provide captures.
func TestCaptureCoverage(t *testing.T) {
	for _, id := range []string{"fig6", "fig7", "table2", "fig8", "fig9",
		"fig10", "fig11", "fig12", "fig13", "fig14", "chaos",
		"serving", "policylab"} {
		if RunCapture(Config{Seed: 1}, id) == nil {
			t.Errorf("experiment %s should have a capture", id)
		}
	}
	if RunCapture(Config{Seed: 1}, "table1") != nil {
		t.Error("table1 should not have a capture")
	}
}
