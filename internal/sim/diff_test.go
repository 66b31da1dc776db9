package sim_test

// Golden and flavour tests over scenario programs. The kernel's traces on
// the regression corpus and a seeded random corpus — operations with
// virtual timestamps, RNG draws, kill order, final virtual time and error,
// panic messages included — are pinned to golden files under testdata.
// They were recorded while the pre-rewrite goroutine-per-process kernel was
// still kept as a differential oracle, and both kernels reproduced them
// byte for byte. The flavour tests require blocking, continuation and mixed
// processes to produce the same trace on the same program.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/simtest"
)

const kernelSeed = 42

// checkStepVsBlocking runs p in blocking, continuation and mixed flavours
// and fails on any divergence (kill-unwind lines filtered: continuation
// processes hold no stack to unwind).
func checkStepVsBlocking(t *testing.T, p prog) {
	t.Helper()
	base := stripKills(runProg(p, allBlock))
	for name, fl := range map[string]flavor{"step": allStep, "mixed": alternating} {
		got := stripKills(runProg(p, fl))
		if i := firstDiff(base, got); i >= 0 {
			t.Fatal(diffReport(p, "blocking vs "+name, base, got, i))
		}
	}
}

// TestDiffRandomPrograms pins the all-blocking traces of 400 seeded random
// byte programs — a few thousand processes and tens of thousands of kernel
// events — each under a "== program <i>" header, to
// testdata/random_programs.trace.
func TestDiffRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	var lines []string
	for i := 0; i < 400; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		lines = append(lines, fmt.Sprintf("== program %d", i))
		lines = append(lines, runProg(decodeProgram(data), allBlock)...)
	}
	simtest.Golden(t, "testdata/random_programs.trace", lines)
}

// TestDiffRandomProgramsStep runs a second seeded random corpus in
// continuation and mixed flavours against the blocking flavour.
func TestDiffRandomProgramsStep(t *testing.T) {
	rng := rand.New(rand.NewSource(20260808))
	for i := 0; i < 200; i++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		p := decodeProgram(data)
		checkStepVsBlocking(t, p)
	}
}

// fixedCorpus returns hand-written regression scenarios, each pinning one
// scheduling contract that random programs only hit by chance.
func fixedCorpus() map[string]prog {
	sleep := func(d float64) instr { return instr{op: opSleep, d: d} }
	put := func(ch, v int) instr { return instr{op: opPut, a: ch, b: v} }
	get := func(ch int) instr { return instr{op: opGet, a: ch} }

	return map[string]prog{
		// Two producers and one consumer across a rendezvous channel:
		// hand-off order and put-completion times are fully determined.
		"rendezvous": {
			chanCaps: []int{0},
			scripts: [][]instr{
				{put(0, 1), put(0, 2), sleep(1), put(0, 3)},
				{put(0, 10), put(0, 20)},
				{sleep(0.5), get(0), get(0), get(0), get(0), sleep(1), get(0)},
			},
			roots:   3,
			horizon: -1,
		},
		// Buffered channel with close: buffered items stay retrievable,
		// blocked getters wake with ok=false in FIFO order.
		"close-drain": {
			chanCaps: []int{2},
			scripts: [][]instr{
				{put(0, 1), put(0, 2), sleep(2), {op: opClose, a: 0}},
				{sleep(1), get(0), get(0), get(0)},
				{sleep(1), get(0)},
			},
			roots:   3,
			horizon: -1,
		},
		// Resource convoy on capacity 1: strict FIFO admission; one holder
		// never releases so waiters are killed at shutdown (kill order must
		// match too).
		"resource-convoy": {
			resCaps: []int{1},
			scripts: [][]instr{
				{{op: opAcquire, a: 0}, sleep(1), {op: opRelease, a: 0}},
				{sleep(0.25), {op: opAcquire, a: 0}, sleep(1), {op: opRelease, a: 0}},
				{sleep(0.5), {op: opAcquire, a: 0}}, // leaks the unit
				{sleep(0.75), {op: opAcquire, a: 0}, {op: opRelease, a: 0}},
			},
			roots:   4,
			horizon: -1,
		},
		// Same-instant wakeups: a fired signal releases all waiters at one
		// timestamp; dispatch order must follow wait order.
		"signal-broadcast": {
			nSigs: 1,
			scripts: [][]instr{
				{{op: opSigWait, a: 0}, {op: opRand}},
				{{op: opSigWait, a: 0}, {op: opRand}},
				{sleep(1), {op: opSigFire, a: 0}, {op: opSigWait, a: 0}},
				{sleep(2), {op: opSigWait, a: 0}},
			},
			roots:   4,
			horizon: -1,
		},
		// Cond notify-one vs notify-all with re-waiting waiters.
		"cond-notify": {
			nConds: 1,
			scripts: [][]instr{
				{{op: opCondWait, a: 0}, {op: opCondWait, a: 0}},
				{{op: opCondWait, a: 0}},
				{sleep(1), {op: opNotifyOne, a: 0}, sleep(1), {op: opNotifyAll, a: 0}, sleep(1), {op: opNotifyAll, a: 0}},
			},
			roots:   3,
			horizon: -1,
		},
		// WaitGroup join: waiter blocks until the last Done at t=2.
		"waitgroup-join": {
			wgAdds: []int{2},
			scripts: [][]instr{
				{{op: opWGWait, a: 0}, {op: opRand}},
				{sleep(1), {op: opWGDone, a: 0}},
				{sleep(2), {op: opWGDone, a: 0}, {op: opWGWait, a: 0}},
			},
			roots:   3,
			horizon: -1,
		},
		// Spawn trees: children start at the current instant behind queued
		// same-time events; RNG draws interleave across the tree.
		"spawn-tree": {
			scripts: [][]instr{
				{{op: opRand}, {op: opSpawn, a: 1}, {op: opSpawn, a: 2}, {op: opRand}},
				{{op: opRand}, {op: opSpawn, a: 2}, sleep(0.25), {op: opRand}},
				{{op: opRand}, {op: opYield}, {op: opRand}},
			},
			roots:   1,
			horizon: -1,
		},
		// A panic mid-run: the failure (message included) and the partial
		// trace before it must match; remaining processes are killed.
		"panic-midway": {
			chanCaps: []int{0},
			scripts: [][]instr{
				{sleep(1), {op: opPanic}},
				{get(0), {op: opRand}},
				{sleep(2), put(0, 7)},
			},
			roots:   3,
			horizon: -1,
		},
		// Horizon cut: events strictly after the horizon never run; blocked
		// and sleeping processes are killed at the cut.
		"horizon-cut": {
			chanCaps: []int{0},
			scripts: [][]instr{
				{sleep(0.75), {op: opRand}, sleep(0.75), {op: opRand}, sleep(2), {op: opRand}},
				{get(0)},
				{sleep(1), put(0, 5), sleep(5), {op: opRand}},
			},
			roots:   3,
			horizon: 2.0,
		},
		// Zero-duration sleeps and yields at one instant: the fast path
		// (no reschedule when nothing else is pending) must not reorder
		// same-time processes.
		"zero-sleep-ties": {
			scripts: [][]instr{
				{sleep(0), {op: opRand}, {op: opYield}, {op: opRand}, sleep(0), {op: opRand}},
				{{op: opRand}, sleep(0), {op: opRand}, {op: opYield}, {op: opRand}},
				{{op: opYield}, {op: opRand}, sleep(0), {op: opRand}},
			},
			roots:   3,
			horizon: -1,
		},
		// TryGet polling alongside blocking getters.
		"tryget-poll": {
			chanCaps: []int{1},
			scripts: [][]instr{
				{{op: opTryGet, a: 0}, sleep(0.5), {op: opTryGet, a: 0}, sleep(1), {op: opTryGet, a: 0}},
				{get(0), get(0)},
				{sleep(0.25), put(0, 1), put(0, 2), put(0, 3)},
			},
			roots:   3,
			horizon: -1,
		},
	}
}

// TestDiffFixedCorpus pins each regression scenario's all-blocking trace
// to testdata/fixed/<name>.trace.
func TestDiffFixedCorpus(t *testing.T) {
	for name, p := range fixedCorpus() {
		t.Run(name, func(t *testing.T) {
			simtest.Golden(t, "testdata/fixed/"+name+".trace", runProg(p, allBlock))
		})
	}
}

// TestDiffFixedCorpusStep pins the same scenarios across process
// flavours.
func TestDiffFixedCorpusStep(t *testing.T) {
	for name, p := range fixedCorpus() {
		t.Run(name, func(t *testing.T) { checkStepVsBlocking(t, p) })
	}
}

// TestDiffDeterministicReplay re-runs one random program many times and
// requires bit-identical traces — the kernel must not leak host scheduling
// or map-iteration nondeterminism into results.
func TestDiffDeterministicReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	data := make([]byte, 160)
	rng.Read(data)
	p := decodeProgram(data)
	base := runProg(p, allBlock)
	for i := 0; i < 20; i++ {
		got := runProg(p, allBlock)
		if j := firstDiff(base, got); j >= 0 {
			t.Fatal(diffReport(p, "replay", base, got, j))
		}
	}
}
