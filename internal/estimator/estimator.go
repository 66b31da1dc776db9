// Package estimator implements the paper's Performance Estimator
// (Section 4): a two-phase scheme in which an application is first
// benchmarked on a representative workload (the profile), and at run time
// the relative performance (speedup) of a new task on each device class is
// predicted with k-nearest-neighbors over the task's input parameters.
//
// The distance metric follows the paper: numeric parameters are normalized
// by the per-dimension maximum of the profile and compared with Euclidean
// distance; non-numeric attributes contribute 0 on an exact match and 1
// otherwise.
//
// The key empirical claim reproduced here (Table 1) is that *relative*
// performance is far easier to predict than raw execution time, because the
// ratio abstracts away data-dependent control flow that affects both devices
// alike.
package estimator

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/hw"
)

// Sample is one profiled execution: the task's input parameters and its
// measured execution time on each device class (in seconds; zero means the
// device was not measured).
type Sample struct {
	Params []float64
	Cats   []string
	Times  [hw.NumKinds]float64
}

// Profile is the training dataset produced by the first (benchmarking)
// phase.
type Profile struct {
	samples []Sample
	maxima  []float64
	// version counts Adds, so an Estimator can tell its memo is stale.
	version uint64
}

// NewProfile returns an empty profile.
func NewProfile() *Profile { return &Profile{} }

// Add appends a sample and updates the normalization maxima. All samples of
// one profile must have the same parameter arity.
func (p *Profile) Add(s Sample) {
	if len(p.samples) > 0 && len(s.Params) != len(p.maxima) {
		panic(fmt.Sprintf("estimator: sample arity %d != profile arity %d", len(s.Params), len(p.maxima)))
	}
	if p.maxima == nil {
		p.maxima = make([]float64, len(s.Params))
	}
	for i, v := range s.Params {
		if a := math.Abs(v); a > p.maxima[i] {
			p.maxima[i] = a
		}
	}
	p.samples = append(p.samples, s)
	p.version++
}

// Len returns the number of samples.
func (p *Profile) Len() int { return len(p.samples) }

// Samples returns the underlying samples (read-only use).
func (p *Profile) Samples() []Sample { return p.samples }

// Features maps a task's numeric parameters to the normalized feature
// vector the distance metric works in: each dimension divided by the
// profile's per-dimension maximum (1.0 when the profile has none), so
// every feature of an in-profile task lands in [0, 1]. This is the
// feature export learned schedulers (policy.BanditSched) build their
// context from — the same normalization the kNN estimator already uses,
// so the learner and the estimator see the same geometry.
func (p *Profile) Features(params []float64) []float64 {
	out := make([]float64, len(params))
	for i, v := range params {
		max := 1.0
		if i < len(p.maxima) && p.maxima[i] > 0 {
			max = p.maxima[i]
		}
		out[i] = math.Abs(v) / max
	}
	return out
}

// Distance computes the paper's metric between a query and a sample.
func (p *Profile) Distance(params []float64, cats []string, s Sample) float64 {
	var sum float64
	for i, v := range params {
		max := 1.0
		if i < len(p.maxima) && p.maxima[i] > 0 {
			max = p.maxima[i]
		}
		d := (v - s.Params[i]) / max
		sum += d * d
	}
	for i, c := range cats {
		if i >= len(s.Cats) || s.Cats[i] != c {
			sum += 1
		}
	}
	return math.Sqrt(sum)
}

// neighbor pairs a sample index with its distance to a query.
type neighbor struct {
	idx  int
	dist float64
}

// after reports whether a ranks strictly after b in the nearest-neighbor
// order: by distance, then by insertion order. This total order makes the
// bounded selection below return exactly the prefix a stable sort of all
// candidates by distance would.
func (a neighbor) after(b neighbor) bool {
	return a.dist > b.dist || (a.dist == b.dist && a.idx > b.idx)
}

// smallK is the largest k whose neighbor selection the predictors keep in
// a stack array, so a speedup estimate allocates nothing.
const smallK = 8

// nearest returns the k nearest samples (excluding any index in skip),
// nearest first, breaking distance ties by insertion order for determinism.
// The selection is built in buf's storage when k fits its capacity, so a
// caller passing a stack array allocates nothing; a larger k allocates.
//
// It keeps a max-heap of the k best candidates seen so far (the heap top is
// the current worst), so a query costs O(n log k) instead of the O(n log n)
// of sorting every sample — the per-task kNN lookup is on the scheduler's
// hot path.
func (p *Profile) nearest(params []float64, cats []string, k int, skip func(int) bool, buf []neighbor) []neighbor {
	if k <= 0 {
		return nil
	}
	best := buf[:0]
	if cap(best) < k {
		best = make([]neighbor, 0, k)
	}
	for i, s := range p.samples {
		if skip != nil && skip(i) {
			continue
		}
		c := neighbor{i, p.Distance(params, cats, s)}
		if len(best) < k {
			best = append(best, c)
			// Sift up: restore the max-heap (worst candidate on top).
			j := len(best) - 1
			for j > 0 {
				parent := (j - 1) / 2
				if !best[j].after(best[parent]) {
					break
				}
				best[j], best[parent] = best[parent], best[j]
				j = parent
			}
			continue
		}
		if !best[0].after(c) {
			continue // c ranks at or after the current worst keeper
		}
		// Replace the worst keeper and sift down.
		best[0] = c
		j := 0
		for {
			l := 2*j + 1
			if l >= len(best) {
				break
			}
			max := l
			if r := l + 1; r < len(best) && best[r].after(best[l]) {
				max = r
			}
			if !best[max].after(best[j]) {
				break
			}
			best[j], best[max] = best[max], best[j]
			j = max
		}
	}
	// k is small (the paper uses 2): order the survivors by the same total
	// order with an insertion sort.
	for i := 1; i < len(best); i++ {
		for j := i; j > 0 && best[j-1].after(best[j]); j-- {
			best[j], best[j-1] = best[j-1], best[j]
		}
	}
	return best
}

// predictTime estimates the execution time on a device class as the mean
// of the k nearest samples' times on that device, skipping the samples
// skip names.
func (p *Profile) predictTime(params []float64, cats []string, kind hw.Kind, k int, skip func(int) bool) float64 {
	var buf [smallK]neighbor
	best := p.nearest(params, cats, k, skip, buf[:0])
	if len(best) == 0 {
		return 0
	}
	var sum float64
	for _, c := range best {
		sum += p.samples[c.idx].Times[kind]
	}
	return sum / float64(len(best))
}

// PredictSpeedup estimates how much faster target is than base for the given
// task: avgTime(base) / avgTime(target) over the k nearest samples. Values
// above 1 mean target is faster.
func (p *Profile) PredictSpeedup(params []float64, cats []string, base, target hw.Kind, k int) float64 {
	return p.predictSpeedup(params, cats, base, target, k, nil)
}

func (p *Profile) predictSpeedup(params []float64, cats []string, base, target hw.Kind, k int, skip func(int) bool) float64 {
	var buf [smallK]neighbor
	best := p.nearest(params, cats, k, skip, buf[:0])
	if len(best) == 0 {
		return 1
	}
	var bt, tt float64
	for _, c := range best {
		bt += p.samples[c.idx].Times[base]
		tt += p.samples[c.idx].Times[target]
	}
	if tt == 0 {
		return 1
	}
	return bt / tt
}

// Estimator is the run-time facade the Event Scheduler queries: it predicts
// the speedup of a task on a device class relative to the baseline CPU.
//
// The runtime asks for one estimate per task it creates, and most tasks of
// a workload repeat a handful of parameter sets (an NBIA task's only
// parameter is its tile edge), so the estimator memoizes its answers. The
// memo is exact: a key matches only bit for bit, and an answer is a pure
// function of the profile, k and the key, so a hit returns exactly what the
// kNN scan would. An Add to the profile invalidates the memo. An Estimator
// is not safe for concurrent use; give each goroutine its own.
type Estimator struct {
	profile *Profile
	k       int
	memo    []memoEntry
	// memoVersion is the profile version the memo's answers were computed
	// on.
	memoVersion uint64
}

// memoCap bounds the memo. Queries past it are answered by the scan and
// not remembered, so a workload with many distinct parameter sets costs a
// short failed lookup per estimate and nothing more.
const memoCap = 16

// memoEntry is one remembered speedup: the key is the query's kind, its
// parameters compared with math.Float64bits (so -0 and +0, or two NaN
// payloads, are different keys) and its categories.
type memoEntry struct {
	kind    hw.Kind
	params  []float64
	cats    []string
	speedup float64
}

func (m *memoEntry) matches(kind hw.Kind, params []float64, cats []string) bool {
	if m.kind != kind || len(m.params) != len(params) || len(m.cats) != len(cats) {
		return false
	}
	for i, v := range params {
		if math.Float64bits(v) != math.Float64bits(m.params[i]) {
			return false
		}
	}
	for i, c := range cats {
		if m.cats[i] != c {
			return false
		}
	}
	return true
}

// New creates an estimator over a profile with the given k (the paper uses
// k=2 as near-best across its configurations).
func New(p *Profile, k int) *Estimator {
	if k < 1 {
		panic("estimator: k must be >= 1")
	}
	return &Estimator{profile: p, k: k}
}

// Speedup predicts the speedup of running the described task on kind
// relative to a baseline CPU core. The CPU baseline itself has speedup 1.
func (e *Estimator) Speedup(kind hw.Kind, params []float64, cats []string) float64 {
	if kind == hw.CPU {
		return 1
	}
	if e.memoVersion != e.profile.version {
		clear(e.memo)
		e.memo = e.memo[:0]
		e.memoVersion = e.profile.version
	}
	for i := range e.memo {
		if m := &e.memo[i]; m.matches(kind, params, cats) {
			return m.speedup
		}
	}
	sp := e.profile.PredictSpeedup(params, cats, hw.CPU, kind, e.k)
	if len(e.memo) < memoCap {
		e.memo = append(e.memo, memoEntry{
			kind:    kind,
			params:  append([]float64(nil), params...),
			cats:    append([]string(nil), cats...),
			speedup: sp,
		})
	}
	return sp
}

// Features exposes the profile's normalized feature vector for the
// described task (see Profile.Features).
func (e *Estimator) Features(params []float64) []float64 {
	return e.profile.Features(params)
}

// Report summarizes a cross-validation: mean absolute percentage errors of
// the predicted GPU-vs-CPU speedup and of the predicted raw CPU time.
type Report struct {
	SpeedupErrPct float64
	CPUTimeErrPct float64
	N             int
}

// CrossValidate performs fold-fold cross-validation with the given k and a
// deterministic shuffle seed, reproducing the methodology of Table 1.
func CrossValidate(p *Profile, folds, k int, seed int64) Report {
	n := p.Len()
	if n < folds || folds < 2 {
		panic("estimator: need at least `folds` samples and folds >= 2")
	}
	perm := rand.New(rand.NewSource(seed)).Perm(n)
	foldOf := make([]int, n)
	for pos, idx := range perm {
		foldOf[idx] = pos % folds
	}
	var spSum, tSum float64
	var count int
	for i, s := range p.samples {
		f := foldOf[i]
		skip := func(j int) bool { return foldOf[j] == f }
		actualCPU := s.Times[hw.CPU]
		actualGPU := s.Times[hw.GPU]
		if actualCPU <= 0 || actualGPU <= 0 {
			continue
		}
		actualSp := actualCPU / actualGPU
		predSp := p.predictSpeedup(s.Params, s.Cats, hw.CPU, hw.GPU, k, skip)
		predT := p.predictTime(s.Params, s.Cats, hw.CPU, k, skip)
		spSum += math.Abs(predSp-actualSp) / actualSp * 100
		tSum += math.Abs(predT-actualCPU) / actualCPU * 100
		count++
	}
	if count == 0 {
		return Report{}
	}
	return Report{
		SpeedupErrPct: spSum / float64(count),
		CPUTimeErrPct: tSum / float64(count),
		N:             count,
	}
}
