package sim

import (
	"testing"
	"time"
)

// TestVirtualClockPacing runs a pacing loop against the kernel's virtual
// clock: each After must land the process exactly at the requested instant,
// a deadline already reached fires without waiting, and no wall-clock time
// is involved.
func TestVirtualClockPacing(t *testing.T) {
	k := NewKernel(1)
	deadlines := []Time{0, 250 * Microsecond, Millisecond, Millisecond, 5 * Millisecond}
	var seen []Time
	i := 0
	var pace Step
	pace = func(e *Env) Cont {
		for ; i < len(deadlines); i++ {
			if d := deadlines[i] - e.Now(); d > 0 {
				return After(d, pace)
			}
			seen = append(seen, e.Now())
		}
		return Done()
	}
	k.SpawnStep("pacer", pace)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(deadlines) {
		t.Fatalf("pacer fired %d times, want %d", len(seen), len(deadlines))
	}
	for i, at := range deadlines {
		if seen[i] != at {
			t.Errorf("firing %d at %v, want %v", i, seen[i], at)
		}
	}
}

// TestManualClockPacing: the hand-advanced clock moves by exactly a
// positive Sleep and not at all for a non-positive one.
func TestManualClockPacing(t *testing.T) {
	c := &ManualClock{}
	c.Sleep(3 * Millisecond)
	if c.Now() != 3*Millisecond {
		t.Fatalf("manual clock at %v after Sleep(3ms)", c.Now())
	}
	c.Sleep(-Millisecond)
	c.Sleep(0)
	if c.Now() != 3*Millisecond {
		t.Fatalf("non-positive Sleep moved the clock to %v", c.Now())
	}
}

// TestWallClockMonotone smoke-tests the real-time implementation without
// actually sleeping long: Now starts near zero and never goes backwards.
func TestWallClockMonotone(t *testing.T) {
	c := NewWallClock()
	a := c.Now()
	if a < 0 {
		t.Fatalf("wall clock started negative: %v", a)
	}
	c.Sleep(Millisecond)
	b := c.Now()
	if b < a+Millisecond {
		t.Fatalf("wall clock did not advance across Sleep: %v -> %v", a, b)
	}
}

// TestWallClockTracksRealTime brackets two WallClock readings with real
// time.Now() samples and checks the reported delta lies inside the real
// elapsed interval — the property anthill-serve's pacing loop depends on
// when it converts wall time to virtual time.
func TestWallClockTracksRealTime(t *testing.T) {
	c := NewWallClock()
	r0 := time.Now()
	a := c.Now()
	c.Sleep(2 * Millisecond)
	b := c.Now()
	r1 := time.Now()
	elapsed := Time(r1.Sub(r0)) / Time(time.Second)
	if d := b - a; d <= 0 || d > elapsed {
		t.Fatalf("wall clock delta %v outside real elapsed (0, %v]", d, elapsed)
	}
}

// TestWallClockSleepNonPositive checks that zero and negative Sleeps return
// promptly instead of blocking (time.Sleep's own contract, pinned here
// because Engine.Pace may compute a non-positive remainder under load).
func TestWallClockSleepNonPositive(t *testing.T) {
	c := NewWallClock()
	start := time.Now()
	c.Sleep(0)
	c.Sleep(-Second)
	if waited := time.Since(start); waited > time.Second {
		t.Fatalf("non-positive Sleep blocked for %v", waited)
	}
}
