//go:build race

package core

// raceEnabled reports whether the race detector is active; allocation
// gates are skipped under -race because instrumentation adds allocations
// of its own.
const raceEnabled = true
