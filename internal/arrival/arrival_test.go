package arrival

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/parallel"
	"repro/internal/sim"
)

// TestPoissonMoments: at a fixed seed, the generated inter-arrival times
// must look exponential — mean 1/rate and variance 1/rate^2, within
// statistical tolerance for a large sample.
func TestPoissonMoments(t *testing.T) {
	const rate = 1000.0
	const n = 20000
	sched := &Schedule{Procs: []Proc{{Kind: Poisson, Rate: rate, N: n}}}
	times := sched.Times(1)
	if len(times) != n {
		t.Fatalf("generated %d arrivals, want %d", len(times), n)
	}
	gaps := make([]float64, n)
	prev := sim.Time(0)
	for i, at := range times {
		if at < prev {
			t.Fatalf("arrival %d at %v before predecessor %v", i, at, prev)
		}
		gaps[i] = float64(at - prev)
		prev = at
	}
	var mean float64
	for _, g := range gaps {
		mean += g
	}
	mean /= n
	var variance float64
	for _, g := range gaps {
		variance += (g - mean) * (g - mean)
	}
	variance /= n - 1
	if math.Abs(mean-1/rate)/(1/rate) > 0.03 {
		t.Errorf("inter-arrival mean %.6g, want %.6g within 3%%", mean, 1/rate)
	}
	if math.Abs(variance-1/(rate*rate))/(1/(rate*rate)) > 0.10 {
		t.Errorf("inter-arrival variance %.6g, want %.6g within 10%%", variance, 1/(rate*rate))
	}
}

// TestBurstModulation: the diurnal process must actually concentrate
// arrivals at the rate crest — the half-period around it collects well over
// half the arrivals when peak is substantial.
func TestBurstModulation(t *testing.T) {
	p := Proc{Kind: Burst, Rate: 200, N: 10000, Peak: 5, Period: sim.Second}
	sched := &Schedule{Procs: []Proc{p}}
	crest, trough := 0, 0
	for _, at := range sched.Times(1) {
		phase := math.Mod(float64(at), 1.0)
		if phase >= 0.25 && phase < 0.75 {
			crest++
		} else {
			trough++
		}
	}
	if crest == 0 || trough == 0 {
		t.Fatalf("degenerate split: crest %d, trough %d", crest, trough)
	}
	if ratio := float64(crest) / float64(trough); ratio < 1.8 {
		t.Errorf("crest/trough arrival ratio %.2f, want >= 1.8 at peak=5", ratio)
	}
}

// TestTraceReplaysExactly: a trace process replays its instants verbatim,
// whatever the seed.
func TestTraceReplaysExactly(t *testing.T) {
	want := []sim.Time{0, 250 * sim.Microsecond, sim.Millisecond, sim.Millisecond, 7 * sim.Millisecond}
	sched, err := Parse("trace:at=0/250us/1ms/1ms/7ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 99} {
		got := sched.Times(seed)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d: trace replay %v, want %v", seed, got, want)
		}
	}
}

// TestUniformSpacing: the closed-form process is exactly 1/rate apart from
// its start offset.
func TestUniformSpacing(t *testing.T) {
	sched := &Schedule{Procs: []Proc{{Kind: Uniform, Rate: 100, N: 4, Start: 10 * sim.Millisecond}}}
	want := []sim.Time{
		10 * sim.Millisecond,
		10*sim.Millisecond + sim.Time(1)/100,
		10*sim.Millisecond + sim.Time(2)/100,
		10*sim.Millisecond + sim.Time(3)/100,
	}
	if got := sched.Times(5); !reflect.DeepEqual(got, want) {
		t.Fatalf("uniform times %v, want %v", got, want)
	}
}

// TestTimesDeterministicAcrossWorkers regenerates the same composite
// schedule on the sweep worker pool: every expansion must be identical to
// the serial one, element for element — the property that keeps serving
// sweeps byte-identical in parallel (and, under -race, exercises the
// generator for data races).
func TestTimesDeterministicAcrossWorkers(t *testing.T) {
	sched, err := Parse("poisson:rate=500,n=300;burst:rate=100,n=200,peak=3,period=100ms;trace:at=1ms/2ms;uniform:rate=50,n=20,start=5ms")
	if err != nil {
		t.Fatal(err)
	}
	for _, seed := range []int64{1, 2, 3} {
		want := sched.Times(seed)
		if len(want) != sched.Count() {
			t.Fatalf("seed %d: %d arrivals, want %d", seed, len(want), sched.Count())
		}
		parallel.SetWorkers(4)
		got := parallel.SweepMap(8, func(int) []sim.Time { return sched.Times(seed) })
		parallel.SetWorkers(0)
		for i, g := range got {
			if !reflect.DeepEqual(g, want) {
				t.Fatalf("seed %d: pooled expansion %d differs from serial", seed, i)
			}
		}
	}
}

// TestSpecRoundTrip: Parse(String(Parse(spec))) is the identity on both the
// schedule value and its canonical rendering.
func TestSpecRoundTrip(t *testing.T) {
	specs := []string{
		"poisson:rate=100,n=50",
		"poisson:rate=2.5,n=1,start=250ms",
		"burst:rate=40,n=200,peak=4,period=500ms",
		"burst:rate=1e3,n=7,peak=1,period=1,start=2s",
		"trace:at=0/1ms/1ms/2.5ms/1s",
		"uniform:rate=100,n=10,start=0",
		" poisson:rate=1,n=1 ; ; trace:at=5ms",
	}
	for _, spec := range specs {
		s1, err := Parse(spec)
		if err != nil {
			t.Errorf("%q: %v", spec, err)
			continue
		}
		canon := s1.String()
		s2, err := Parse(canon)
		if err != nil {
			t.Errorf("%q: canonical form %q does not reparse: %v", spec, canon, err)
			continue
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Errorf("%q: round trip changed the schedule:\n  first:  %+v\n  second: %+v", spec, s1, s2)
		}
		if s2.String() != canon {
			t.Errorf("%q: String not a fixed point: %q then %q", spec, canon, s2.String())
		}
	}
}

// TestParseRejects exercises the parser's validation.
func TestParseRejects(t *testing.T) {
	bad := []string{
		"poisson",                            // no colon
		"poisson:rate=100",                   // missing n
		"poisson:rate=0,n=5",                 // rate must be positive
		"poisson:rate=1e10,n=5",              // rate bound
		"poisson:rate=100,n=0",               // n bound
		"poisson:rate=100,n=2000000",         // n bound
		"poisson:rate=100,n=5,start=-1",      // negative start
		"poisson:rate=100,n=5,zzz=1",         // unknown key
		"poisson:rate=100,n=5,rate=6",        // duplicate key
		"gamma:rate=1,n=1",                   // unknown kind
		"burst:rate=1,n=1",                   // missing peak/period
		"burst:rate=1,n=1,peak=0.5,period=1", // peak < 1
		"burst:rate=1,n=1,peak=2,period=0",   // period must be positive
		"trace:at=",                          // not a duration
		"trace:at=2ms/1ms",                   // decreasing
		"trace:at=-1ms",                      // negative instant
		"trace:",                             // empty kv entry
	}
	for _, spec := range bad {
		if _, err := Parse(spec); err == nil {
			t.Errorf("parser accepted %q", spec)
		}
	}
}
