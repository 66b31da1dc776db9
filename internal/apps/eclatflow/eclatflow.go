// Package eclatflow implements distributed frequent-itemset mining as a
// replicated dataflow — the Anthill Eclat application of Table 1, recast on
// this runtime. It uses the count-distribution scheme: the transaction
// database is partitioned into chunks; a counting filter (with CPU and GPU
// handlers) computes each chunk's support for every candidate itemset; a
// labeled stream routes per-candidate partial counts to the aggregator
// instance that owns the candidate, which sums them and reports the
// globally frequent itemsets.
//
// Unlike NBIA, the kernels here really run: chunk supports are computed
// with actual set intersection over the synthetic database, so the result
// is checked against a sequential reference mining of the same data.
package eclatflow

import (
	"fmt"
	"math/rand"
	"sort"

	"repro/internal/apps/microbench"
	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// Config describes one mining run.
type Config struct {
	// Nodes is the cluster size; each mining round runs on a fresh
	// simulated cluster of this many CPU+GPU nodes (a simulation kernel
	// is single-use). MakeCluster overrides the topology if set.
	Nodes int
	// MakeCluster optionally builds a custom cluster per round.
	MakeCluster func(*sim.Kernel) *hw.Cluster
	// Transactions is the number of synthetic transactions.
	Transactions int
	// Items is the alphabet size.
	Items int
	// AvgLen is the mean transaction length.
	AvgLen int
	// MinSupport is the absolute support threshold.
	MinSupport int
	// ChunkTx is the number of transactions per partition chunk.
	ChunkTx int
	// MaxSetSize bounds candidate itemset size (1 or 2).
	MaxSetSize int
	// Policy is the stream policy between reader and counter.
	Policy policy.StreamPolicy
	// UseGPU enables GPU counting on GPU nodes.
	UseGPU bool
	// Seed drives database synthesis.
	Seed int64
}

// Result of a run.
type Result struct {
	// Frequent maps the itemset key ("3" or "3,7") to its global support.
	Frequent map[string]int
	// Makespan is the virtual execution time.
	Makespan sim.Time
	// Chunks is the number of database partitions processed per round.
	Chunks int
}

// chunkTask carries one partition through the counting filter.
type chunkTask struct {
	Chunk      [][]int
	Candidates [][]int
}

// countTask carries one candidate's partial support to its aggregator.
type countTask struct {
	Key     string
	Support int
}

// SynthesizeDB generates a transaction database with skewed item
// popularity (low item IDs are frequent), so both frequent and rare
// itemsets exist.
func SynthesizeDB(transactions, items, avgLen int, seed int64) [][]int {
	rng := rand.New(rand.NewSource(seed))
	db := make([][]int, transactions)
	for i := range db {
		n := 1 + rng.Intn(2*avgLen-1)
		seen := map[int]bool{}
		for j := 0; j < n; j++ {
			// Zipf-ish skew: square a uniform to favor small IDs.
			u := rng.Float64()
			item := int(u * u * float64(items))
			if !seen[item] {
				seen[item] = true
				db[i] = append(db[i], item)
			}
		}
	}
	return db
}

// keyOf renders an itemset as a canonical string key.
func keyOf(set []int) string {
	s := ""
	for i, v := range set {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%d", v)
	}
	return s
}

// candidates1 lists all single-item candidates present in the DB.
func candidates1(db [][]int) [][]int {
	seen := map[int]bool{}
	for _, tx := range db {
		for _, it := range tx {
			seen[it] = true
		}
	}
	items := make([]int, 0, len(seen))
	for it := range seen {
		items = append(items, it)
	}
	sort.Ints(items)
	out := make([][]int, len(items))
	for i, it := range items {
		out[i] = []int{it}
	}
	return out
}

// candidates2 builds all pairs of globally frequent single items.
func candidates2(freq1 []int) [][]int {
	var out [][]int
	for i := 0; i < len(freq1); i++ {
		for j := i + 1; j < len(freq1); j++ {
			out = append(out, []int{freq1[i], freq1[j]})
		}
	}
	return out
}

// countingCost models device time for support counting: proportional to
// the chunk's transaction count x candidate count, read from the task's
// chunkTask payload, with the GPU ~4x faster on large batches — the regime
// Table 1 reports for Eclat.
func countingCost(t *task.Task, k hw.Kind) sim.Time {
	ct := t.Payload.(chunkTask)
	work := sim.Time(len(ct.Chunk)) * sim.Time(len(ct.Candidates)) * 120 * 1e-9 * sim.Second
	if k == hw.GPU {
		return work/4 + 200*sim.Microsecond
	}
	return work
}

// runRound counts the supports of one candidate set across all chunks and
// returns the global support per candidate key.
func runRound(cfg Config, db [][]int, cands [][]int) (map[string]int, sim.Time, int) {
	nChunks := (len(db) + cfg.ChunkTx - 1) / cfg.ChunkTx
	k := sim.NewKernel(cfg.Seed + int64(len(cands)))
	var cluster *hw.Cluster
	if cfg.MakeCluster != nil {
		cluster = cfg.MakeCluster(k)
	} else {
		cluster = hw.HomogeneousCluster(k, cfg.Nodes)
	}
	rt := core.New(cluster, nil)

	var workers []int
	for i := range cluster.Nodes {
		workers = append(workers, i)
	}

	reader := rt.AddFilter(core.FilterSpec{
		Name:        "reader",
		Placement:   []int{0},
		SourceCount: func(int) int { return nChunks },
		SourceMake: func(_, k int) *task.Task {
			lo := k * cfg.ChunkTx
			hi := lo + cfg.ChunkTx
			if hi > len(db) {
				hi = len(db)
			}
			t := &task.Task{
				Size:    int64((hi - lo) * (cfg.AvgLen + 1) * 4),
				OutSize: int64(len(cands) * 8),
				Payload: chunkTask{Chunk: db[lo:hi], Candidates: cands},
				Cost:    countingCost,
			}
			t.Weight[hw.CPU] = 1
			t.Weight[hw.GPU] = 4
			t.ComputeKeys()
			return t
		},
	})
	counter := rt.AddFilter(core.FilterSpec{
		Name: "count", Placement: workers,
		UseGPU: cfg.UseGPU, CPUWorkers: -1, AsyncCopy: true,
		Handler: func(ctx *core.Ctx, t *task.Task) core.Action {
			ct := t.Payload.(chunkTask)
			var out []*task.Task
			for _, cand := range ct.Candidates {
				sup := microbench.Support(ct.Chunk, cand)
				if sup == 0 {
					continue
				}
				out = append(out, &task.Task{
					Size:    64,
					Payload: countTask{Key: keyOf(cand), Support: sup},
					Cost:    func(*task.Task, hw.Kind) sim.Time { return 2 * sim.Microsecond },
				})
			}
			return core.Action{Forward: out}
		},
	})
	global := map[string]int{}
	aggregator := rt.AddFilter(core.FilterSpec{
		Name: "aggregate", Placement: workers, CPUWorkers: 1,
		Handler: func(ctx *core.Ctx, t *task.Task) core.Action {
			c := t.Payload.(countTask)
			global[c.Key] += c.Support
			return core.Action{}
		},
	})
	rt.Connect(reader, counter, cfg.Policy)
	rt.ConnectLabeled(counter, aggregator, policy.DDFCFS(8), func(t *task.Task) uint64 {
		key := t.Payload.(countTask).Key
		var h uint64 = 14695981039346656037
		for i := 0; i < len(key); i++ {
			h = (h ^ uint64(key[i])) * 1099511628211
		}
		return h
	})
	res, err := rt.Run()
	if err != nil {
		panic(fmt.Sprintf("eclatflow: %v", err))
	}
	return global, res.Makespan, nChunks
}

// Run mines frequent itemsets up to MaxSetSize.
func Run(cfg Config) *Result {
	if cfg.Nodes <= 0 && cfg.MakeCluster == nil {
		cfg.Nodes = 1
	}
	if cfg.ChunkTx <= 0 {
		cfg.ChunkTx = 1000
	}
	if cfg.MaxSetSize <= 0 {
		cfg.MaxSetSize = 2
	}
	db := SynthesizeDB(cfg.Transactions, cfg.Items, cfg.AvgLen, cfg.Seed)

	out := &Result{Frequent: map[string]int{}}
	// Round 1: single items.
	counts, t1, chunks := runRound(cfg, db, candidates1(db))
	out.Makespan += t1
	out.Chunks = chunks
	var freq1 []int
	for key, sup := range counts {
		if sup >= cfg.MinSupport {
			out.Frequent[key] = sup
		}
	}
	if cfg.MaxSetSize < 2 {
		return out
	}
	for key := range out.Frequent {
		var it int
		fmt.Sscanf(key, "%d", &it)
		freq1 = append(freq1, it)
	}
	sort.Ints(freq1)
	// Round 2: pairs of frequent items (count distribution needs the
	// *global* round-1 result before candidates can be formed).
	pairs := candidates2(freq1)
	if len(pairs) == 0 {
		return out
	}
	counts2, t2, _ := runRound(cfg, db, pairs)
	out.Makespan += t2
	for key, sup := range counts2 {
		if sup >= cfg.MinSupport {
			out.Frequent[key] = sup
		}
	}
	return out
}

// ReferenceMine computes the same result sequentially with the real Eclat
// implementation, for correctness checks.
func ReferenceMine(cfg Config) map[string]int {
	db := SynthesizeDB(cfg.Transactions, cfg.Items, cfg.AvgLen, cfg.Seed)
	maxSize := cfg.MaxSetSize
	if maxSize <= 0 {
		maxSize = 2
	}
	out := map[string]int{}
	for _, set := range microbench.Eclat(db, cfg.MinSupport) {
		if len(set) <= maxSize {
			out[keyOf(set)] = microbench.Support(db, set)
		}
	}
	return out
}
