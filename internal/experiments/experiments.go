// Package experiments contains one driver per table and figure of the
// paper's evaluation (Section 6 plus Table 1 from Section 4). Each driver
// regenerates the artifact on the simulated cluster, renders it as
// markdown, and evaluates the qualitative checks — "who wins, by roughly
// what factor, where the crossovers fall" — that a faithful reproduction
// must satisfy.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/metrics"
)

// Config controls workload scale for all experiments.
type Config struct {
	// Full runs paper-scale workloads (26,742-tile base cases, a
	// 267,420-tile scaling study, the 360M-integer vector). When false, a
	// reduced scale keeps the whole suite in tens of seconds while
	// preserving every qualitative shape.
	Full bool
	// Seed drives all randomness.
	Seed int64
	// FaultSpec, when non-empty, replaces the chaos experiment's random
	// intensity sweep with this scripted -faults schedule (see fault.Parse).
	// Other experiments ignore it.
	FaultSpec string
	// ArrivalSpec, when non-empty, replaces the serving experiment's
	// default open-system rate sweep with this scripted -arrivals schedule
	// (see arrival.Parse). Other experiments ignore it.
	ArrivalSpec string
	// Observe additionally runs one small representative configuration of
	// each supported experiment with the full observability layer attached
	// (Chrome trace-event log + metrics registry + span-lineage collector)
	// and stores the rendered artifacts in Report.Obs. The capture is a
	// separate run executed after the sweep, so the report body stays
	// byte-identical with and without it — except for the one appended
	// makespan-attribution line Render adds when a capture is present. See
	// anthill-sim's -trace/-metrics-out/-explain/-explain-out flags.
	Observe bool
}

// Check is one qualitative assertion about an experiment's outcome.
type Check struct {
	Name   string
	Pass   bool
	Detail string
}

// Report is the rendered result of one experiment.
type Report struct {
	ID       string
	Title    string
	PaperRef string
	// Expectation summarizes what the paper reports for this artifact.
	Expectation string
	// Body is the regenerated table/figure as markdown.
	Body string
	// Series holds the figure's raw curves, when the artifact is a figure
	// (used by anthill-sim's -svg export).
	Series []metrics.Series
	// Checks are the evaluated shape assertions.
	Checks []Check
	// Obs holds the observability capture when Config.Observe is set and
	// the experiment supports one (see RunCapture); nil otherwise. It is
	// not part of Render — anthill-sim writes it to separate files.
	Obs *ObsCapture
}

// Passed reports whether every check passed.
func (r *Report) Passed() bool {
	for _, c := range r.Checks {
		if !c.Pass {
			return false
		}
	}
	return true
}

// Render produces the full markdown section for the report.
func (r *Report) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s — %s (%s)\n\n", r.ID, r.Title, r.PaperRef)
	fmt.Fprintf(&b, "**Paper:** %s\n\n", r.Expectation)
	b.WriteString(r.Body)
	b.WriteString("\n**Shape checks:**\n\n")
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "- [%s] %s — %s\n", mark, c.Name, c.Detail)
	}
	if r.Obs != nil && r.Obs.Breakdown != "" {
		// Only present when Config.Observe is set, so plain reports stay
		// byte-identical with earlier versions.
		fmt.Fprintf(&b, "\n**Makespan attribution (capture):** %s\n", r.Obs.Breakdown)
	}
	b.WriteString("\n")
	return b.String()
}

// Experiment is one registered driver.
type Experiment struct {
	ID       string
	Title    string
	PaperRef string
	Run      func(Config) *Report
}

// registry holds all experiments, keyed by ID, in registration order.
var registry []Experiment

func register(e Experiment) { registry = append(registry, e) }

// extras holds experiments that run only when named explicitly with -exp:
// they are not part of the paper-order suite, so -exp all (and the pinned
// digest of its seed-1 report) never includes them.
var extras []Experiment

func registerExtra(e Experiment) { extras = append(extras, e) }

// Extras returns the on-demand experiments in registration order.
func Extras() []Experiment {
	out := make([]Experiment, len(extras))
	copy(out, extras)
	return out
}

// All returns every experiment in paper order.
func All() []Experiment {
	out := make([]Experiment, len(registry))
	copy(out, registry)
	sort.SliceStable(out, func(i, j int) bool { return orderOf(out[i].ID) < orderOf(out[j].ID) })
	return out
}

// orderOf gives the paper's presentation order.
func orderOf(id string) int {
	order := []string{"table1", "fig6", "fig7", "table2", "table3", "fig8",
		"table4", "fig9", "fig10", "table6", "fig11", "fig12", "fig13", "fig14",
		"fusion", "pushrr", "ablation", "models", "gpusharing", "variance",
		"chaos"}
	for i, v := range order {
		if v == id {
			return i
		}
	}
	return len(order)
}

// ByID finds an experiment, in the paper suite or the extras.
func ByID(id string) (Experiment, bool) {
	for _, e := range registry {
		if e.ID == id {
			return e, true
		}
	}
	for _, e := range extras {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// check is a helper building a Check from a condition.
func check(name string, pass bool, format string, args ...any) Check {
	return Check{Name: name, Pass: pass, Detail: fmt.Sprintf(format, args...)}
}

// Preamble is the header of an EXPERIMENTS.md-style document.
func Preamble(cfg Config) string {
	scale := "reduced scale (pass -full for paper scale)"
	if cfg.Full {
		scale = "paper scale"
	}
	return fmt.Sprintf(`# Experiments: paper vs. reproduction

Every table and figure of "Run-time optimizations for replicated dataflows
on heterogeneous environments" (HPDC 2010), regenerated on the simulated
heterogeneous cluster at %s, followed by the extension studies (mechanism
ablations, the estimator model zoo, concurrent GPU execution, run-to-run
variance, fault-injection chaos). Absolute numbers are not expected to match the authors' 2010
testbed; each section lists the paper's qualitative claim and the shape
checks our measurement must (and does) satisfy.

## Parallel execution

Every sweep point below is an independent simulation seeded purely by
(seed, point index), so regeneration fans points across a bounded worker
pool (anthill-sim's `+"`-parallel`"+`, on by default; pool size = GOMAXPROCS,
overridable with `+"`-workers N`"+` or the `+"`ANTHILL_WORKERS`"+` env var). This
document is byte-identical whatever the pool size — `+"`-parallel=false`"+`
forces the serial reference path, and the determinism tests assert the
identity on every run.

`, scale)
}

// RunAll executes every experiment and writes a complete EXPERIMENTS.md
// style document to w. It returns the number of failed checks.
//
// Experiments run on the sweep worker pool (see parallel.Sweep); the
// document is assembled in paper order afterwards, so the output is
// byte-identical whatever the pool size.
func RunAll(cfg Config, w io.Writer) (int, error) {
	if _, err := io.WriteString(w, Preamble(cfg)); err != nil {
		return 0, err
	}
	failed := 0
	for _, rep := range RunMany(cfg, All()) {
		if _, err := io.WriteString(w, rep.Render()); err != nil {
			return failed, err
		}
		for _, c := range rep.Checks {
			if !c.Pass {
				failed++
			}
		}
	}
	return failed, nil
}
