package obs

import (
	"testing"

	"repro/internal/sim"
)

// FuzzWindowedSketch decodes arbitrary bytes into a schedule of adds and
// queries and requires, at every query, Percentiles and the fused walk to
// equal the from-scratch reference fold's Count and Quantile bit for bit,
// and the cached fold to encode as the reference does (checkWindowOps). The first byte
// picks the window count; each following byte pair is an op and its
// argument: an add after a step forward, an add into an older window, a
// burst of adds (eps 0.05 compresses every 10 samples, so bursts reach
// g > 1), a query now, or a query at an earlier instant.
func FuzzWindowedSketch(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		const width = sim.Time(1)
		windows := 1 + int(data[0]%6)
		var ops []windowOp
		now := sim.Time(0)
		earlier := func(arg byte) sim.Time { return max(0, now-sim.Time(arg%64)*width/8) }
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			switch op % 5 {
			case 0:
				now += sim.Time(arg%16) * width / 8
				ops = append(ops, windowOp{at: now, v: float64(arg)})
			case 1:
				ops = append(ops, windowOp{at: earlier(arg), v: float64(arg)})
			case 2:
				for k := 0; k <= int(arg); k++ {
					ops = append(ops, windowOp{at: now, v: float64((k*37 + int(arg)) % 101)})
				}
			case 3:
				ops = append(ops, windowOp{query: true, at: now})
			case 4:
				ops = append(ops, windowOp{query: true, at: earlier(arg)})
			}
		}
		checkWindowOps(t, 0.05, width, windows, ops)
	})
}
