package experiments

import (
	"strings"
	"testing"

	"repro/internal/apps/nbia"
	"repro/internal/fault"
	"repro/internal/span"
)

func policylabExp(t *testing.T) []Experiment {
	t.Helper()
	e, ok := ByID("policylab")
	if !ok {
		t.Fatal("policylab experiment not registered")
	}
	return []Experiment{e}
}

// TestPolicylabDeterminism checks the policy-lab matrix renders
// byte-identically on a 4-worker pool and the serial path for three seeds —
// the rival schedulers are stateful, so this pins that every point builds
// fresh scheduler state from (seed, point index) alone and that no
// scheduler leaks randomness outside the deterministic hash. Runs under
// -short so the race detector covers the scheduler plug points on every CI
// pass.
func TestPolicylabDeterminism(t *testing.T) {
	exps := policylabExp(t)
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Seed: seed}
		serial := renderMany(t, cfg, exps, 1)
		par := renderMany(t, cfg, exps, 4)
		if serial != par {
			t.Errorf("seed %d: parallel policylab report differs from serial (%d vs %d bytes)",
				seed, len(par), len(serial))
		}
	}
}

// TestPolicylabReportShape pins the experiment's qualitative promises at
// seed 1: every check passes (six policies race on every shape, batch
// lineages complete, chaos conservation, open-system exactly-once, span
// coverage) and the winners section attributes critical paths.
func TestPolicylabReportShape(t *testing.T) {
	rep := policylabExp(t)[0].Run(Config{Seed: 1})
	for _, c := range rep.Checks {
		if !c.Pass {
			t.Errorf("check %q failed: %s", c.Name, c.Detail)
		}
	}
	for _, want := range []string{
		"Per-shape winners",
		"critical path",
		"coverage 100.0%",
		"AFFINITY", "HYBRID", "BANDIT",
		"balanced", "gpu-heavy", "cpu-heavy",
	} {
		if !strings.Contains(rep.Body, want) {
			t.Errorf("report body missing %q", want)
		}
	}
	if len(rep.Series) != 6 {
		t.Errorf("report carries %d series, want one per policy (6)", len(rep.Series))
	}
	for _, s := range rep.Series {
		if len(s.Y) != len(labShapes) {
			t.Errorf("series %s has %d points, want one per shape (%d)",
				s.Label, len(s.Y), len(labShapes))
		}
	}
}

// TestPolicylabNotInAll: the policy lab is an extra — the paper-order suite
// (and its pinned digest) must not include it.
func TestPolicylabNotInAll(t *testing.T) {
	for _, e := range All() {
		if e.ID == "policylab" {
			t.Fatal("policylab registered in the paper-order suite; it must stay an extra")
		}
	}
	if _, ok := ByID("policylab"); !ok {
		t.Fatal("policylab not reachable through ByID")
	}
}

// TestPolicylabRivalChaosConservation runs the chaos leg directly for each
// of the three rival schedulers and audits exactly-once processing: crash
// recovery must re-enqueue every lost buffer exactly once even when the
// replaying policy scores pops through scheduler state that diverged from
// the first attempt (affinity residency, hybrid threshold, bandit arms).
func TestPolicylabRivalChaosConservation(t *testing.T) {
	cfg := Config{Seed: 1}
	s := labShapes[0]
	for _, def := range labPolicies(1, nil) {
		switch def.name {
		case "AFFINITY", "HYBRID", "BANDIT":
		default:
			continue
		}
		def := def
		t.Run(def.name, func(t *testing.T) {
			base, err := runLabBatch(cfg, s, def, 1, nil, false, span.NewCollector())
			if err != nil {
				t.Fatalf("healthy: %v", err)
			}
			sched := fault.Random(1, 1, fault.Shape{
				Nodes:     s.nodes(),
				GPUNodes:  s.gpuIDs(),
				Horizon:   base.Makespan,
				Filter:    "nbia",
				Instances: s.nodes(),
			})
			res, err := runLabBatch(cfg, s, def, 1, sched, true, nil)
			if err != nil {
				t.Fatalf("faulted: %v", err)
			}
			want := int(nbia.ExpectedLineages(labTiles(cfg), nbia.DefaultLevels, labRecalc, 0))
			seen := map[nbia.TileRef]int{}
			for _, r := range res.Records {
				seen[*r.Payload.(*nbia.TileRef)]++
			}
			if len(seen) != want {
				t.Errorf("%d unique lineages processed, want %d", len(seen), want)
			}
			for ref, n := range seen {
				if n > 1 {
					t.Errorf("lineage %v processed %d times", ref, n)
				}
			}
		})
	}
}
