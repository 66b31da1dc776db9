package serve

import (
	"testing"
	"time"

	"repro/internal/arrival"
	"repro/internal/sim"
)

// BenchmarkEngineFrame replays a bursty schedule (seed 1, 2,500 arrivals,
// trough 3,200/s, crest twice that, 1 s period) as anthill-serve paces it:
// 100x dilation on a sim.ManualClock, a 50 ms wall tick, one Step and one
// Frame per tick until the engine drains. ns/op is the whole replay; the
// ns/frame metric is the host time of the Frame calls alone, averaged over
// every tick of every replay.
//
//	GOMAXPROCS=1 go test ./internal/serve -run '^$' -bench EngineFrame -benchmem
func BenchmarkEngineFrame(b *testing.B) {
	s := arrival.Schedule{Procs: []arrival.Proc{{Kind: arrival.Burst, Rate: 3200, N: 2500, Peak: 2, Period: 1}}}
	times := s.Times(1)
	const dilation, tick = 100, 50 * sim.Millisecond
	b.ReportAllocs()
	var inFrame time.Duration
	frames := 0
	for i := 0; i < b.N; i++ {
		e, err := New(Config{Seed: 1, Times: times})
		if err != nil {
			b.Fatal(err)
		}
		clk := &sim.ManualClock{}
		for done := false; !done; clk.Sleep(tick) {
			if done, err = e.Step(clk.Now(), dilation); err != nil {
				b.Fatal(err)
			}
			t0 := time.Now()
			e.Frame()
			inFrame += time.Since(t0)
			frames++
		}
	}
	b.ReportMetric(float64(inFrame.Nanoseconds())/float64(frames), "ns/frame")
}
