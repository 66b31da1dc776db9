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

// pinnedDigest returns the sha256 hex digest scripts/<pin>.sha256 lists
// for file, as scripts/byte-identity.sh checks it with sha256sum -c.
func pinnedDigest(t *testing.T, pin, file string) string {
	t.Helper()
	sums, err := os.ReadFile("../../scripts/" + pin + ".sha256")
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(string(sums), "\n") {
		if sum, name, ok := strings.Cut(line, "  "); ok && name == file {
			return sum
		}
	}
	t.Fatalf("scripts/%s.sha256 pins no digest for %s", pin, file)
	return ""
}

// sha256Hex is the hex sha256 digest of b, as sha256sum prints it.
func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestExtrasPinnedDigests renders the serving and policylab extras at
// seed 1, as anthill-sim -exp <id> -seed 1 writes them, and checks each
// against its digest in scripts/. Both are cheap, so every tier-1 run
// guards every pinned report, not only scripts/byte-identity.sh.
func TestExtrasPinnedDigests(t *testing.T) {
	for _, id := range []string{"serving", "policylab"} {
		e, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %q not registered", id)
		}
		doc := renderMany(t, Config{Seed: 1}, []Experiment{e}, 0)
		name := "exp_" + id + "_seed1"
		if got, want := sha256Hex([]byte(doc)), pinnedDigest(t, name, name+".md"); got != want {
			t.Errorf("seed 1: -exp %s report hashes to %s, scripts/%s.sha256 pins %s", id, got, name, want)
		}
	}
}

// TestServingCapturePinned renders -exp serving at seed 1 with the
// observability capture on, as anthill-sim -exp serving -seed 1 -trace
// -metrics-out -explain-out writes it, and checks the report and the three
// capture files against scripts/serving_capture_seed1.sha256.
func TestServingCapturePinned(t *testing.T) {
	e, ok := ByID("serving")
	if !ok {
		t.Fatal("experiment \"serving\" not registered")
	}
	reps := RunMany(Config{Seed: 1, Observe: true}, []Experiment{e})
	if len(reps) != 1 || reps[0].Obs == nil {
		t.Fatal("-exp serving produced no observability capture")
	}
	const pin = "serving_capture_seed1"
	obs := reps[0].Obs
	for _, f := range []struct {
		file string
		data []byte
	}{
		{pin + ".md", []byte(reps[0].Render())},
		{pin + ".trace.json", obs.Trace},
		{pin + ".metrics.json", obs.Metrics},
		{pin + ".explain.json", obs.Explain},
	} {
		if got, want := sha256Hex(f.data), pinnedDigest(t, pin, f.file); got != want {
			t.Errorf("seed 1: %s hashes to %s, scripts/%s.sha256 pins %s", f.file, got, pin, want)
		}
	}
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
	want := pinnedDigest(t, "exp_all_seed1", "exp_all_seed1.md")
	seeds := determinismSeeds(t)
	for seed := int64(1); seed <= seeds; seed++ {
		cfg := Config{Seed: seed}
		serial := document(cfg, serialRun(seed))
		if seed == 1 {
			if got := sha256Hex([]byte(serial)); got != want {
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
