package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"strconv"
	"strings"
	"testing"

	"repro/internal/parallel"
)

// renderMany runs the given experiments with the given worker-pool size and
// returns the concatenated rendered reports. The pool size is restored to
// the default afterwards.
func renderMany(t *testing.T, cfg Config, exps []Experiment, workers int) string {
	t.Helper()
	parallel.SetWorkers(workers)
	defer parallel.SetWorkers(0)
	var b strings.Builder
	for _, rep := range RunMany(cfg, exps) {
		b.WriteString(rep.Render())
	}
	return b.String()
}

// quickSubset returns the experiments cheap enough to regenerate several
// times per seed in this test binary.
func quickSubset(t *testing.T) []Experiment {
	t.Helper()
	ids := []string{"table1", "fig7", "table2", "table3", "fig12", "models",
		"pushrr", "gpusharing"}
	var exps []Experiment
	for _, id := range ids {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	return exps
}

// TestSweepDeterminismQuick checks the core promise of the parallel runner:
// for a representative subset of experiments and several seeds, the report
// produced on a 4-worker pool is byte-identical to the serial (1-worker)
// one. It runs even under -short so the race detector exercises the worker
// pool on every CI pass.
func TestSweepDeterminismQuick(t *testing.T) {
	exps := quickSubset(t)
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Seed: seed}
		serial := renderMany(t, cfg, exps, 1)
		par := renderMany(t, cfg, exps, 4)
		if serial != par {
			t.Errorf("seed %d: parallel report differs from serial (%d vs %d bytes)",
				seed, len(par), len(serial))
		}
	}
}

// TestChaosDeterminism checks that the chaos experiment — whose points run
// two simulations each and draw per-point random fault schedules — renders
// byte-identically on a 4-worker pool and the serial path. Like
// TestSweepDeterminismQuick it runs even under -short so the race detector
// covers fault injection on every CI pass.
func TestChaosDeterminism(t *testing.T) {
	e, ok := ByID("chaos")
	if !ok {
		t.Fatal("chaos experiment not registered")
	}
	exps := []Experiment{e}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Seed: seed}
		serial := renderMany(t, cfg, exps, 1)
		par := renderMany(t, cfg, exps, 4)
		if serial != par {
			t.Errorf("seed %d: parallel chaos report differs from serial (%d vs %d bytes)",
				seed, len(par), len(serial))
		}
	}
}

// determinismSeeds is how many seeds the full-registry tests cover: 1, or
// ANTHILL_DETERMINISM_SEEDS (scripts/check.sh sets 3).
func determinismSeeds(t *testing.T) int64 {
	t.Helper()
	s := os.Getenv("ANTHILL_DETERMINISM_SEEDS")
	if s == "" {
		return 1
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil || n < 1 {
		t.Fatalf("bad ANTHILL_DETERMINISM_SEEDS=%q", s)
	}
	return n
}

// serialRuns holds one serial run of the full registry per seed. Reports
// do not depend on the pool size (TestRunAllDeterminism asserts it), so
// the digest, the serial-vs-pool comparison and the shape checks all read
// this one pass.
var serialRuns = map[int64][]*Report{}

// serialRun returns the seed's full-registry reports, run serially the
// first time they are asked for.
func serialRun(seed int64) []*Report {
	if reps, ok := serialRuns[seed]; ok {
		return reps
	}
	parallel.SetWorkers(1)
	defer parallel.SetWorkers(0)
	reps := RunMany(Config{Seed: seed}, All())
	serialRuns[seed] = reps
	return reps
}

// document renders reports as anthill-sim -exp all writes them.
func document(cfg Config, reps []*Report) string {
	var b strings.Builder
	b.WriteString(Preamble(cfg))
	for _, rep := range reps {
		b.WriteString(rep.Render())
	}
	return b.String()
}

// TestRunAllDeterminism checks byte-identity for the full registry: the
// seed-1 document must hash to scripts/exp_all_seed1.sha256, and every
// covered seed's 4-worker document must equal the serial one. Seed 1
// always runs (outside -short); more seeds with ANTHILL_DETERMINISM_SEEDS.
func TestRunAllDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full-registry determinism check skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("full-registry determinism check skipped under -race " +
			"(TestSweepDeterminismQuick covers the pool under the detector)")
	}
	pin, err := os.ReadFile("../../scripts/exp_all_seed1.sha256")
	if err != nil {
		t.Fatal(err)
	}
	want, _, _ := strings.Cut(string(pin), " ")
	seeds := determinismSeeds(t)
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := Config{Seed: seed}
		serial := document(cfg, serialRun(seed))
		if seed == 1 {
			sum := sha256.Sum256([]byte(serial))
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("seed 1: -exp all document hashes to %s, scripts/exp_all_seed1.sha256 pins %s", got, want)
			}
		}
		if par := Preamble(cfg) + renderMany(t, cfg, All(), 4); serial != par {
			t.Errorf("seed %d: parallel full report differs from serial (%d vs %d bytes)",
				seed, len(par), len(serial))
		}
	}
}

// TestExplainDeterminism checks the attribution acceptance property: the
// explain artifact (span.Doc JSON), the human-readable summary, and the
// breakdown line captured on a 4-worker pool are byte-identical to the
// serial ones, across seeds 1-3, for the cheap capture-bearing experiments
// (fig7 exercises the VI capture, fig12 the heterogeneous NBIA one). The
// expensive fig10 CLI path is pinned by `make determinism`, and
// TestExplainCaptureRepeatable covers the chaos/fig10 capture workloads
// directly.
func TestExplainDeterminism(t *testing.T) {
	captureAll := func(cfg Config, exps []Experiment, workers int) []*ObsCapture {
		t.Helper()
		parallel.SetWorkers(workers)
		defer parallel.SetWorkers(0)
		var out []*ObsCapture
		for _, rep := range RunMany(cfg, exps) {
			if rep.Obs == nil {
				t.Fatalf("experiment %s produced no capture with Observe set", rep.ID)
			}
			out = append(out, rep.Obs)
		}
		return out
	}
	var exps []Experiment
	for _, id := range []string{"fig7", "fig12"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		exps = append(exps, e)
	}
	for seed := int64(1); seed <= 3; seed++ {
		cfg := Config{Seed: seed, Observe: true}
		serial := captureAll(cfg, exps, 1)
		par := captureAll(cfg, exps, 4)
		for i := range serial {
			if string(serial[i].Explain) != string(par[i].Explain) {
				t.Errorf("seed %d, %s: parallel explain artifact differs from serial",
					seed, exps[i].ID)
			}
			if serial[i].ExplainText != par[i].ExplainText {
				t.Errorf("seed %d, %s: parallel explain summary differs", seed, exps[i].ID)
			}
			if serial[i].Breakdown != par[i].Breakdown {
				t.Errorf("seed %d, %s: parallel breakdown line differs", seed, exps[i].ID)
			}
		}
	}
}

// TestExplainCaptureRepeatable runs the fig10 and chaos captures twice each
// (captures are fixed-size and independent of the sweep) and requires
// byte-identical explain artifacts for the same seed.
func TestExplainCaptureRepeatable(t *testing.T) {
	for _, id := range []string{"fig10", "chaos"} {
		cfg := Config{Seed: 1}
		a := RunCapture(cfg, id)
		b := RunCapture(cfg, id)
		if a == nil || b == nil {
			t.Fatalf("%s: no capture", id)
		}
		if string(a.Explain) != string(b.Explain) {
			t.Errorf("%s: repeated captures produced different explain artifacts", id)
		}
		if a.ExplainText != b.ExplainText || a.Breakdown != b.Breakdown {
			t.Errorf("%s: repeated captures produced different summaries", id)
		}
		if len(a.Explain) == 0 || a.Breakdown == "" {
			t.Errorf("%s: capture missing explain artifacts", id)
		}
	}
}
