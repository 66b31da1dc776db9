package eclatflow

import (
	"reflect"
	"testing"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
)

func testConfig(nodes int) Config {
	return Config{
		Nodes:        nodes,
		Transactions: 3000,
		Items:        40,
		AvgLen:       6,
		MinSupport:   300,
		ChunkTx:      250,
		MaxSetSize:   2,
		Policy:       policy.ODDS(),
		UseGPU:       true,
		Seed:         11,
	}
}

func TestMatchesSequentialReference(t *testing.T) {
	cfg := testConfig(2)
	got := Run(cfg)
	want := ReferenceMine(cfg)
	if !reflect.DeepEqual(got.Frequent, want) {
		t.Fatalf("distributed mining diverged from reference:\n got %v\nwant %v",
			got.Frequent, want)
	}
	if len(want) == 0 {
		t.Fatal("degenerate test: reference found no frequent itemsets")
	}
}

func TestSingleItemRound(t *testing.T) {
	cfg := testConfig(1)
	cfg.MaxSetSize = 1
	got := Run(cfg)
	want := ReferenceMine(cfg)
	if !reflect.DeepEqual(got.Frequent, want) {
		t.Fatalf("got %v want %v", got.Frequent, want)
	}
	for key := range got.Frequent {
		for _, c := range key {
			if c == ',' {
				t.Fatalf("pair %q leaked into a 1-itemset round", key)
			}
		}
	}
}

func TestDeterministicAcrossPolicies(t *testing.T) {
	// The *result* must be identical under every stream policy; only the
	// makespan may differ.
	results := map[string]map[string]int{}
	for _, pol := range []policy.StreamPolicy{
		policy.DDFCFS(4), policy.DDWRR(8), policy.ODDS(),
	} {
		cfg := testConfig(2)
		cfg.Policy = pol
		results[pol.Name] = Run(cfg).Frequent
	}
	if !reflect.DeepEqual(results["DDFCFS"], results["DDWRR"]) ||
		!reflect.DeepEqual(results["DDWRR"], results["ODDS"]) {
		t.Fatal("mining result depends on the stream policy")
	}
}

func TestGPUSpeedsUpMining(t *testing.T) {
	run := func(useGPU bool) sim.Time {
		cfg := testConfig(2)
		cfg.UseGPU = useGPU
		return Run(cfg).Makespan
	}
	cpuOnly := run(false)
	withGPU := run(true)
	if withGPU >= cpuOnly {
		t.Fatalf("GPU run (%v) not faster than CPU-only (%v)", withGPU, cpuOnly)
	}
}

func TestSynthesizeDBShape(t *testing.T) {
	db := SynthesizeDB(500, 30, 5, 3)
	if len(db) != 500 {
		t.Fatalf("transactions = %d", len(db))
	}
	totalLen := 0
	for _, tx := range db {
		if len(tx) == 0 {
			t.Fatal("empty transaction")
		}
		seen := map[int]bool{}
		for _, it := range tx {
			if it < 0 || it >= 30 {
				t.Fatalf("item %d out of range", it)
			}
			if seen[it] {
				t.Fatalf("duplicate item in transaction %v", tx)
			}
			seen[it] = true
		}
		totalLen += len(tx)
	}
	if avg := float64(totalLen) / 500; avg < 2 || avg > 8 {
		t.Fatalf("average transaction length %.1f implausible", avg)
	}
}

func TestKeyOf(t *testing.T) {
	if keyOf([]int{3}) != "3" || keyOf([]int{3, 7}) != "3,7" {
		t.Fatal("keyOf format")
	}
}

func TestCustomHeterogeneousCluster(t *testing.T) {
	cfg := testConfig(0)
	cfg.MakeCluster = func(k *sim.Kernel) *hw.Cluster {
		return hw.NewCluster(k, []hw.NodeSpec{hw.PaperNode(), hw.PaperNode(), hw.CPUOnlyNode()}, nil)
	}
	got := Run(cfg)
	want := ReferenceMine(cfg)
	if !reflect.DeepEqual(got.Frequent, want) {
		t.Fatalf("hetero cluster mining diverged:\n got %v\nwant %v", got.Frequent, want)
	}
}
