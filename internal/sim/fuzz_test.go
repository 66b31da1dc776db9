package sim_test

// FuzzKernelScenario lets the fuzzer invent scenario programs byte-by-byte
// and checks every one against the kernel's contract: timestamps never
// decrease, the horizon-bounded trace is the full trace cut at the horizon,
// and a second run replays the first exactly. The decoder is total (any byte
// string is a program) and bounded (small script/process caps), so every
// mutation is a fast, meaningful case.

import "testing"

func FuzzKernelScenario(f *testing.F) {
	// Structured seeds: primitives of each kind, spawns, a panic opcode and
	// a horizon, so mutation starts from interesting programs. The byte
	// corpus under testdata/fuzz/FuzzKernelScenario adds decoded-coverage
	// cases found by earlier fuzzing runs.
	f.Add([]byte{})
	f.Add([]byte{2, 1, 0, 2, 1, 1, 1, 1, 2, 4, 3, 0,
		6, 2, 3, 1, 0, 3, 0, 0, 5, 0,
		4, 2, 5, 3, 1, 15, 0, 16})
	f.Add([]byte{1, 0, 1, 1, 1, 1, 1, 2, 3, 2, 0,
		8, 6, 0, 0, 4, 13, 0, 7, 0, 9, 0, 14, 0, 16,
		5, 8, 0, 10, 0, 11, 0, 12, 0})
	f.Add([]byte{0, 0, 0, 0, 0, 2, 1, 3,
		6, 15, 0, 0, 2, 16, 17, 0,
		3, 0, 8, 1, 16})
	f.Fuzz(func(t *testing.T, data []byte) {
		p := decodeProgram(data)
		base, again := runProg(p), runProg(p)
		if i := firstDiff(base, again); i >= 0 {
			t.Fatal(diffReport(p, "replay", base, again, i))
		}
		checkMonotonic(t, p, base)
		if p.horizon >= 0 {
			unbounded := p
			unbounded.horizon = -1
			if full := runProg(unbounded); !panicked(full) {
				checkHorizonCut(t, p, full, base)
			}
		}
	})
}
