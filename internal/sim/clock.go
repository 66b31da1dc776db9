package sim

import "time"

// Clock abstracts the passage of host-side time for a driver that paces a
// kernel from outside it (serve.Engine.Pace): a real-time demo runs it on
// WallClock, a test on ManualClock. Inside the kernel, processes wait with
// After.
//
// Times are sim.Time seconds; a wall-clock implementation anchors Time 0 at
// its construction instant.
type Clock interface {
	// Now returns the current time.
	Now() Time
	// Sleep blocks the calling context until d has elapsed. Non-positive
	// durations return immediately without yielding.
	Sleep(d Time)
}

// WallClock implements Clock over the host's real time, anchored at the
// instant NewWallClock was called.
type WallClock struct{ epoch time.Time }

// NewWallClock returns a wall clock whose Time 0 is now.
func NewWallClock() *WallClock { return &WallClock{epoch: time.Now()} }

// Now returns the seconds elapsed since the clock's epoch.
func (c *WallClock) Now() Time { return Time(time.Since(c.epoch)) / Time(time.Second) }

// Sleep blocks the calling goroutine for d of real time (no-op for d <= 0).
func (c *WallClock) Sleep(d Time) {
	if d > 0 {
		time.Sleep(time.Duration(float64(d) * float64(time.Second)))
	}
}

// ManualClock is a hand-advanced Clock for unit tests: Sleep advances the
// clock by exactly the requested duration, so a pacing loop runs to
// completion instantly and deterministically.
type ManualClock struct{ Time Time }

// Now returns the clock's current hand position.
func (c *ManualClock) Now() Time { return c.Time }

// Sleep advances the clock by d (no-op for d <= 0).
func (c *ManualClock) Sleep(d Time) {
	if d > 0 {
		c.Time += d
	}
}
