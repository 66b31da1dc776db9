package sim_test

// Property tests over generated programs: scheduling invariants the kernel
// must uphold for any workload, checked across blocking and continuation
// process flavours.

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"repro/internal/sim"
)

// spawnLogger spawns a process of the given flavour that appends its name
// to *order at t=0 (continuation and blocking flavours must obey the same
// same-timestamp dispatch order).
func spawnLogger(k *sim.Kernel, name string, step bool, order *[]string) {
	if step {
		k.SpawnStep(name, func(e *sim.Env) sim.Cont {
			*order = append(*order, name)
			return sim.Done()
		})
		return
	}
	k.Spawn(name, func(e *sim.Env) {
		*order = append(*order, name)
	})
}

// TestPropertySameTimeSpawnOrder: processes spawned at the same instant run
// in spawn order, regardless of flavour mix.
func TestPropertySameTimeSpawnOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 50; trial++ {
		k := sim.NewKernel(1)
		n := 2 + rng.Intn(20)
		var want []string
		var got []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("p%d", i)
			want = append(want, name)
			spawnLogger(k, name, rng.Intn(2) == 0, &got)
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("trial %d: dispatch order %v, want spawn order %v", trial, got, want)
		}
	}
}

// TestPropertyYieldFairness: processes repeatedly yielding at one instant
// are dispatched round-robin — every round contains every live process once,
// in spawn order — for Yield, Sleep(0) and After(0, ...) alike.
func TestPropertyYieldFairness(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 30; trial++ {
		k := sim.NewKernel(1)
		n := 2 + rng.Intn(8)
		rounds := 1 + rng.Intn(10)
		var got []string
		for i := 0; i < n; i++ {
			name := fmt.Sprintf("p%d", i)
			switch rng.Intn(3) {
			case 0: // blocking Yield
				k.Spawn(name, func(e *sim.Env) {
					for r := 0; r < rounds; r++ {
						got = append(got, name)
						e.Yield()
					}
				})
			case 1: // blocking Sleep(0)
				k.Spawn(name, func(e *sim.Env) {
					for r := 0; r < rounds; r++ {
						got = append(got, name)
						e.Sleep(0)
					}
				})
			default: // continuation After(0)
				var loop func(r int) sim.Step
				loop = func(r int) sim.Step {
					return func(e *sim.Env) sim.Cont {
						if r == rounds {
							return sim.Done()
						}
						got = append(got, name)
						return sim.After(0, loop(r+1))
					}
				}
				k.SpawnStep(name, loop(0))
			}
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if len(got) != n*rounds {
			t.Fatalf("trial %d: %d dispatches, want %d", trial, len(got), n*rounds)
		}
		for r := 0; r < rounds; r++ {
			for i := 0; i < n; i++ {
				if want := fmt.Sprintf("p%d", i); got[r*n+i] != want {
					t.Fatalf("trial %d round %d slot %d: got %s, want %s (full: %v)",
						trial, r, i, got[r*n+i], want, got)
				}
			}
		}
	}
}

// TestPropertyFIFOChanWakeup: blocked getters — blocking and continuation
// flavours interleaved on one channel — receive values in arrival order,
// and values arrive in put order.
func TestPropertyFIFOChanWakeup(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 50; trial++ {
		k := sim.NewKernel(1)
		ch := sim.NewChan[int](k, 0)
		getters := 1 + rng.Intn(10)
		type rcv struct{ getter, val int }
		var got []rcv
		for i := 0; i < getters; i++ {
			i := i
			if rng.Intn(2) == 0 {
				k.Spawn(fmt.Sprintf("g%d", i), func(e *sim.Env) {
					v, ok := ch.Get(e)
					if ok {
						got = append(got, rcv{i, v})
					}
				})
			} else {
				k.SpawnStep(fmt.Sprintf("g%d", i), func(e *sim.Env) sim.Cont {
					return ch.GetThen(e, func(e *sim.Env, v int, ok bool) sim.Cont {
						if ok {
							got = append(got, rcv{i, v})
						}
						return sim.Done()
					})
				})
			}
		}
		sent := rng.Intn(getters + 3)
		k.Spawn("producer", func(e *sim.Env) {
			e.Sleep(1) // let every getter enqueue first
			for v := 0; v < sent; v++ {
				ch.Put(e, v)
			}
		})
		// With sent > getters the surplus put blocks forever and the
		// producer is killed at shutdown — silently, by contract.
		if err := k.Run(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		want := sent
		if want > getters {
			want = getters
		}
		if len(got) != want {
			t.Fatalf("trial %d: %d deliveries, want %d", trial, len(got), want)
		}
		for j, r := range got {
			if r.getter != j || r.val != j {
				t.Fatalf("trial %d: delivery %d went to getter %d with value %d (want getter/value %d); full: %v",
					trial, j, r.getter, r.val, j, got)
			}
		}
	}
}

// lineTime extracts the trailing "@<time>" stamp of a trace line.
func lineTime(line string) (float64, bool) {
	i := strings.LastIndexByte(line, '@')
	if i < 0 {
		return 0, false
	}
	v, err := strconv.ParseFloat(line[i+1:], 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// panicked reports whether a scenario trace ended in a kernel failure.
func panicked(trace []string) bool {
	return strings.Contains(trace[len(trace)-1], "err=sim:")
}

// checkMonotonic requires the operation timestamps of a scenario trace to
// never decrease: the kernel never moves virtual time backwards.
func checkMonotonic(t testing.TB, p prog, trace []string) {
	t.Helper()
	last := 0.0
	for i, l := range trace {
		if ts, ok := lineTime(l); ok {
			if ts < last {
				t.Fatalf("time went backwards at trace line %d: %q after @%.9g\n--- program:\n%s", i, l, last, p)
			}
			last = ts
		}
	}
}

// checkHorizonCut requires cut, the trace of p run to its horizon h, to be
// exactly full, the trace of the unbounded run, restricted to operations
// completing at t <= h — nothing early is lost, nothing late leaks in. Kill
// lines are excluded (the kill set legitimately differs).
func checkHorizonCut(t testing.TB, p prog, full, cut []string) {
	t.Helper()
	h := p.horizon
	full, cut = stripKills(full), stripKills(cut)
	var want []string
	for _, l := range full[:len(full)-1] { // drop the "final ..." line
		if ts, ok := lineTime(l); ok && ts <= h {
			want = append(want, l)
		}
	}
	got := cut[:len(cut)-1]
	if i := firstDiff(want, got); i >= 0 {
		t.Fatal(diffReport(p, fmt.Sprintf("horizon %g exactness", h), want, got, i))
	}
	for _, l := range got {
		if ts, ok := lineTime(l); ok && ts > h {
			t.Fatalf("operation past horizon %g: %q\n--- program:\n%s", h, l, p)
		}
	}
}

// TestPropertyRunUntilHorizonExactness: over random scenario programs, the
// horizon-bounded trace is exactly the full-run trace restricted to
// operations completing at t <= horizon.
func TestPropertyRunUntilHorizonExactness(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 120; trial++ {
		data := make([]byte, rng.Intn(200))
		rng.Read(data)
		p := decodeProgram(data)
		p.horizon = -1
		full := runProg(p, allBlock)
		if panicked(full) {
			continue // a panicking program ends early on both runs anyway
		}
		p.horizon = float64(rng.Intn(8)) * 0.75
		checkHorizonCut(t, p, full, runProg(p, allBlock))
	}
}

// TestPropertyNoLostWakeup: a produce/consume pipeline with random fan-in,
// fan-out, buffering and process flavours delivers every value exactly once
// and terminates cleanly — no wakeup is lost and no value duplicated.
func TestPropertyNoLostWakeup(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		k := sim.NewKernel(1)
		producers := 1 + rng.Intn(4)
		consumers := 1 + rng.Intn(4)
		perProducer := 1 + rng.Intn(20)
		ch := sim.NewChan[int](k, rng.Intn(4))
		wg := sim.NewWaitGroup(k)
		wg.Add(producers)
		seen := map[int]int{}
		for pi := 0; pi < producers; pi++ {
			pi := pi
			base := pi * perProducer
			if rng.Intn(2) == 0 {
				k.Spawn(fmt.Sprintf("prod%d", pi), func(e *sim.Env) {
					for v := 0; v < perProducer; v++ {
						e.Sleep(sim.Time(e.Rand().Float64()))
						ch.Put(e, base+v)
					}
					wg.Done()
				})
			} else {
				var loop func(v int) sim.Step
				loop = func(v int) sim.Step {
					return func(e *sim.Env) sim.Cont {
						if v == perProducer {
							wg.Done()
							return sim.Done()
						}
						return sim.After(sim.Time(e.Rand().Float64()), func(e *sim.Env) sim.Cont {
							return ch.PutThen(e, base+v, func(e *sim.Env) sim.Cont {
								return loop(v + 1)(e)
							})
						})
					}
				}
				k.SpawnStep(fmt.Sprintf("prod%d", pi), loop(0))
			}
		}
		k.Spawn("closer", func(e *sim.Env) {
			wg.Wait(e)
			ch.Close(e)
		})
		for ci := 0; ci < consumers; ci++ {
			if rng.Intn(2) == 0 {
				k.Spawn(fmt.Sprintf("cons%d", ci), func(e *sim.Env) {
					for {
						v, ok := ch.Get(e)
						if !ok {
							return
						}
						seen[v]++
					}
				})
			} else {
				var loop sim.Step
				loop = func(e *sim.Env) sim.Cont {
					return ch.GetThen(e, func(e *sim.Env, v int, ok bool) sim.Cont {
						if !ok {
							return sim.Done()
						}
						seen[v]++
						return loop(e)
					})
				}
				k.SpawnStep(fmt.Sprintf("cons%d", ci), loop)
			}
		}
		if err := k.Run(); err != nil {
			t.Fatalf("trial %d (prod=%d cons=%d per=%d): %v", trial, producers, consumers, perProducer, err)
		}
		total := producers * perProducer
		if len(seen) != total {
			t.Fatalf("trial %d: received %d distinct values, want %d", trial, len(seen), total)
		}
		for v, n := range seen {
			if n != 1 {
				t.Fatalf("trial %d: value %d delivered %d times", trial, v, n)
			}
		}
	}
}
