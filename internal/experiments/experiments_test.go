package experiments

import (
	"strings"
	"testing"
)

func TestRegistryCompleteAndOrdered(t *testing.T) {
	want := []string{"table1", "fig6", "fig7", "table2", "table3", "fig8",
		"table4", "fig9", "fig10", "table6", "fig11", "fig12", "fig13", "fig14",
		"fusion", "pushrr", "ablation", "models", "gpusharing", "variance",
		"chaos"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("order[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Title == "" || e.PaperRef == "" || e.Run == nil {
			t.Fatalf("experiment %s incompletely registered", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig6"); !ok {
		t.Fatal("fig6 not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Fatal("bogus ID found")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID: "x", Title: "T", PaperRef: "Figure 0",
		Expectation: "exp", Body: "body\n",
		Checks: []Check{
			check("good", true, "detail %d", 1),
			check("bad", false, "detail"),
		},
	}
	out := r.Render()
	for _, want := range []string{"## x — T (Figure 0)", "**Paper:** exp", "body",
		"[PASS] good — detail 1", "[FAIL] bad"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	if r.Passed() {
		t.Fatal("report with a failing check must not pass")
	}
}

// The cheap experiments run as part of the unit suite; the NBIA-heavy ones
// are exercised by TestAllExperimentShapes (skipped in -short) and by the
// benchmarks in the repository root.

func TestTable1Experiment(t *testing.T) {
	rep := runTable1(Config{Seed: 1})
	if !rep.Passed() {
		t.Fatalf("table1 checks failed:\n%s", rep.Render())
	}
}

func TestTable2Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runTable2(Config{Seed: 1})
	if !rep.Passed() {
		t.Fatalf("table2 checks failed:\n%s", rep.Render())
	}
}

func TestFig12Experiment(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	rep := runFig12(Config{Seed: 1})
	if !rep.Passed() {
		t.Fatalf("fig12 checks failed:\n%s", rep.Render())
	}
}

// TestAllExperimentShapes asserts every experiment's shape checks on the
// serial full-registry pass TestRunAllDeterminism shares, for each seed it
// covers; one subtest per experiment names a failure.
func TestAllExperimentShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode: full shape suite takes ~3 minutes")
	}
	if raceEnabled {
		t.Skip("full-registry shape checks skipped under -race: the serial " +
			"pass is one goroutine, so the detector has nothing to check in it " +
			"(the non-race run asserts the shapes; TestSweepDeterminismQuick " +
			"covers the pool under the detector)")
	}
	seeds := determinismSeeds(t)
	for i, e := range All() {
		t.Run(e.ID, func(t *testing.T) {
			for seed := int64(1); seed <= seeds; seed++ {
				for _, c := range serialRun(seed)[i].Checks {
					if !c.Pass {
						t.Errorf("seed %d: %s: %s — %s", seed, e.ID, c.Name, c.Detail)
					}
				}
			}
		})
	}
}
