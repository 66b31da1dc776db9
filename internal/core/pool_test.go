package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
)

// demandRoundWorkload runs a DDWRR(32) source → worker pipeline on four
// dual-core nodes: 48 tasks from a source on node 0, each costing cost on a
// CPU. Every task leaves the source within the first rounds; from then on
// the requesters poll it across the network and get empty replies, backing
// off between empty cycles, until the last task completes. So the number
// of demand rounds grows with cost while the tasks, processes and every
// other hook record stay the same. It returns the DemandIssued records.
func demandRoundWorkload(cost sim.Time) int {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2}}, nil)
	rt, _, _ := buildSimple(c, 48, fixedCost(cost), FilterSpec{Placement: []int{0, 1, 2, 3}}, policy.DDWRR(32))
	issued := 0
	rt.Hooks.Demand = func(r DemandRecord) {
		if r.Event == DemandIssued {
			issued++
		}
	}
	if _, err := rt.Run(); err != nil {
		panic(err)
	}
	return issued
}

// TestDemandRoundAllocs pins the demand protocol's round trip — demand
// message, request hand-off, sender selection, reply transmission, reply
// wait, settle — at no allocation in steady state: running the pipeline
// twenty times longer issues thousands more rounds but allocates at most
// 0.05 more per extra round. Fetch records, reply transmissions, network transfers
// and channel waiters are all pooled with their steps bound once.
func TestDemandRoundAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation thresholds are not meaningful under -race")
	}
	const short, long = sim.Millisecond, 20 * sim.Millisecond
	nShort, nLong := demandRoundWorkload(short), demandRoundWorkload(long)
	if nLong-nShort < 1000 {
		t.Fatalf("%d demand rounds at cost %v vs %d at %v: too few extra rounds to measure", nLong, long, nShort, short)
	}
	aShort := testing.AllocsPerRun(5, func() { demandRoundWorkload(short) })
	aLong := testing.AllocsPerRun(5, func() { demandRoundWorkload(long) })
	perRound := (aLong - aShort) / float64(nLong-nShort)
	t.Logf("%d rounds: %.0f allocs; %d rounds: %.0f allocs; %.4f per extra round", nShort, aShort, nLong, aLong, perRound)
	if perRound > 0.05 {
		t.Errorf("%.3f allocations per extra demand round, want <= 0.05", perRound)
	}
}

// TestPooledFetchLatency: a fetch record goes back to its requester's pool
// only once its reply has been settled, so with 32 fetches in flight per
// requester, each record reused many times, every data reply's measured
// request latency still spans both network crossings: the demand message
// out and the buffer back, at least twice the one-way latency. A record
// released early would be taken by a newer fetch, whose start time the
// older fetch would then read.
func TestPooledFetchLatency(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{{CPUCores: 2}, {CPUCores: 2}, {CPUCores: 2}}, nil)
	rt, _, wf := buildSimple(c, 400, fixedCost(sim.Millisecond), FilterSpec{Placement: []int{1, 2}}, policy.DDWRR(32))
	floor := 2 * c.Net.Config().Latency
	data := 0
	rt.Hooks.Demand = func(r DemandRecord) {
		if r.Event != DemandData {
			return
		}
		data++
		for _, w := range wf.instances[r.Instance].workers {
			if w.name() != r.Worker {
				continue
			}
			if lat := w.reqStates[r.Input].lastLatency; lat < floor {
				t.Fatalf("%s at %v: request latency %v, below the %v round trip", r.Worker, r.At, lat, floor)
			}
		}
	}
	if _, err := rt.Run(); err != nil {
		t.Fatal(err)
	}
	if data != 400 {
		t.Fatalf("%d data replies, want 400", data)
	}
}
