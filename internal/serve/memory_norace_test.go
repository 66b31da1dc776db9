//go:build !race

package serve

import (
	"os"
	"runtime"
	"strconv"
	"testing"

	"repro/internal/arrival"
	"repro/internal/sim"
)

// TestEngineMemoryBound is the live engine's memory gate. It drains a short
// and a long bursty schedule (trough 3,200/s, crest twice that, 1 s period:
// the sink sees SLO violations and sheds) and requires that once drained
// the span collector holds at most one buffer per pipe, the kept worst
// violator, and that the in-use heap grows by at most 16 bytes per extra
// arrival: the 8 bytes of its instant in Config.Times plus slack for map
// and summary growth, where keeping per-request state would cost hundreds.
// ANTHILL_SOAK_ARRIVALS sets the long schedule's length (default 10^5;
// scripts/check.sh runs 10^6).
func TestEngineMemoryBound(t *testing.T) {
	const short = 20000
	long := 100000
	if s := os.Getenv("ANTHILL_SOAK_ARRIVALS"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n <= short {
			t.Fatalf("ANTHILL_SOAK_ARRIVALS=%q: want an integer above %d", s, short)
		}
		long = n
	}
	hShort := drainedHeap(t, short)
	hLong := drainedHeap(t, long)
	per := float64(hLong-hShort) / float64(long-short)
	t.Logf("in-use heap after drain: %d B for %d arrivals, %d B for %d: %.1f B per extra arrival",
		hShort, short, hLong, long, per)
	if per > 16 {
		t.Errorf("in-use heap grows %.1f B per extra arrival, want <= 16", per)
	}
}

// drainedHeap drains an n-arrival engine and returns the in-use heap it
// and its schedule hold afterwards.
func drainedHeap(t *testing.T, n int) int64 {
	t.Helper()
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	base := ms.HeapAlloc
	s := arrival.Schedule{Procs: []arrival.Proc{{Kind: arrival.Burst, Rate: 3200, N: n, Peak: 2, Period: 1}}}
	times := s.Times(1)
	e, err := New(Config{Seed: 1, Times: times})
	if err != nil {
		t.Fatal(err)
	}
	done, err := e.Advance(times[n-1] + 10*sim.Second)
	if err != nil || !done {
		t.Fatalf("%d arrivals: drained=%v, err=%v", n, done, err)
	}
	if got := e.col.Buffers(); got > len(e.pipes) {
		t.Errorf("%d arrivals: span collector holds %d buffers after the drain, want <= %d (one worst violator per pipe)",
			n, got, len(e.pipes))
	}
	violations := 0
	for _, p := range e.Frame().Pipes {
		violations += p.Violations
	}
	if violations == 0 {
		t.Errorf("%d arrivals: no SLO violations, so no worst violator was kept", n)
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(e)
	return int64(ms.HeapAlloc) - int64(base)
}
