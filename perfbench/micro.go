package main

import (
	"repro/internal/apps/nbia"
	"repro/internal/estimator"
	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sim"
	"repro/internal/task"
)

// Layer probes: single calls into one layer, timed on the shapes the NBIA
// workloads feed it. Each reports the median of repeated timings.

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// messagePathNs times one round of the runtime's per-message shape on the
// step API (the message_path_step workload of cmd/benchsweep): spawn a
// transfer, serialize on a NIC-like resource, deliver the reply through a
// channel the driver waits on.
func messagePathNs() float64 {
	const rounds = 1000
	return medianOf(15, func() { messagePathStep(rounds) }) * 1e9 / rounds
}

func messagePathStep(rounds int) {
	k := sim.NewKernel(1)
	nic := sim.NewResource(k, 1)
	replies := sim.NewChan[int](k, 1)
	finish := func(e *sim.Env) sim.Cont {
		nic.Release()
		return replies.PutThen(e, 1, sim.DoneStep)
	}
	hold := func(e *sim.Env) sim.Cont { return sim.After(10*sim.Microsecond, finish) }
	send := func(e *sim.Env) sim.Cont { return nic.AcquireThen(e, hold) }
	left := rounds
	var driver sim.Step
	var onReply func(e *sim.Env, v int, ok bool) sim.Cont
	driver = func(e *sim.Env) sim.Cont {
		if left == 0 {
			return sim.Done()
		}
		left--
		e.SpawnStep("send", send)
		return replies.GetThen(e, onReply)
	}
	onReply = func(e *sim.Env, v int, ok bool) sim.Cont {
		if !ok {
			panic("perfbench: reply channel closed early")
		}
		return driver(e)
	}
	k.SpawnStep("driver", driver)
	if err := k.Run(); err != nil {
		panic(err)
	}
}

// nbiaTiles builds n NBIA tile tasks over both pyramid levels, weighted by
// the cost model's exact speedups.
func nbiaTiles(n int) []*task.Task {
	out := make([]*task.Task, n)
	for i := range out {
		id, level := uint64(i+1), i%len(nbia.DefaultLevels)
		edge := nbia.DefaultLevels[level]
		t := &task.Task{ID: id, Seq: id, Params: []float64{float64(edge)}}
		t.Weight[hw.CPU] = 1
		t.Weight[hw.GPU] = nbia.OracleSpeedup(id, edge, level)
		t.ComputeKeys()
		out[i] = t
	}
	return out
}

// popRankedNs times policy.Queue.PopRanked on a sorted queue of 64 NBIA
// tiles scored by their GPU key, draining the queue and refilling it; the
// refill's pushes are included in the per-pop time.
func popRankedNs() float64 {
	const depth, rounds = 64, 200
	tiles := nbiaTiles(depth)
	q := policy.NewQueue(policy.Sorted)
	score := func(t *task.Task) float64 { return t.Key[hw.GPU] }
	return medianOf(9, func() {
		for r := 0; r < rounds; r++ {
			for _, t := range tiles {
				q.Push(t)
			}
			for q.Len() > 0 {
				sink += q.PopRanked(score).Key[hw.GPU]
			}
		}
	}) * 1e9 / (depth * rounds)
}

// speedupNs times one estimator speedup prediction for an NBIA tile, on the
// profile nbia.Run trains for this seed.
func speedupNs(seed int64) float64 {
	const calls = 20000
	est := estimator.New(nbia.BuildProfile(nbia.DefaultLevels, 30, seed+nbiaSeedOffset+1), 2)
	params := [][]float64{{32}, {64}, {128}, {256}, {512}}
	return medianOf(9, func() {
		for i := 0; i < calls; i++ {
			sink += est.Speedup(hw.GPU, params[i%len(params)], nil)
		}
	}) * 1e9 / calls
}
