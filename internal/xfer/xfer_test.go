package xfer

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
)

func TestControllerStartsAtTwo(t *testing.T) {
	c := NewController(0)
	if c.Concurrent() != 2 {
		t.Fatalf("initial = %d, want 2", c.Concurrent())
	}
}

func TestControllerExponentialGrowth(t *testing.T) {
	c := NewController(0)
	// Monotonically improving throughput: 2 -> +2 -> +4 -> +8 ...
	c.Observe(1) // first observation only records a baseline
	want := []int{4, 8, 16, 32}
	for i, w := range want {
		c.Observe(float64(2 + i))
		if c.Concurrent() != w {
			t.Fatalf("step %d: concurrent = %d, want %d", i, c.Concurrent(), w)
		}
	}
	if c.SaturationFound() {
		t.Fatal("saturation flagged during pure growth")
	}
}

func TestControllerBacksOffOnDecrease(t *testing.T) {
	c := NewController(0)
	c.Observe(1)
	c.Observe(2) // -> 4, step 4
	c.Observe(3) // -> 8, step 8
	c.Observe(2) // decrease: revert 8-8 -> min clamp 1? No: 8-8=0 -> clamped to 1, step 4, stopExp
	if !c.SaturationFound() {
		t.Fatal("saturation not flagged")
	}
	if c.Concurrent() < 1 {
		t.Fatalf("concurrent = %d", c.Concurrent())
	}
	// After saturation the step no longer doubles on growth.
	before := c.Concurrent()
	step := c.StepSize()
	c.Observe(5)
	if c.Concurrent() != before+step {
		t.Fatalf("post-saturation growth: %d -> %d (step %d)", before, c.Concurrent(), step)
	}
	if c.StepSize() != step {
		t.Fatalf("step doubled after saturation: %d -> %d", step, c.StepSize())
	}
}

func TestControllerNeverBelowOneNorAboveMax(t *testing.T) {
	f := func(ups []bool) bool {
		c := NewController(64)
		tp := 1.0
		for _, up := range ups {
			if up {
				tp *= 1.1
			} else {
				tp *= 0.9
			}
			c.Observe(tp)
			if c.Concurrent() < 1 || c.Concurrent() > 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func mkXferTask(size, out int64, gpuCost sim.Time) *task.Task {
	tk := &task.Task{Size: size, OutSize: out, Cost: func(_ *task.Task, k hw.Kind) sim.Time {
		if k == hw.GPU {
			return gpuCost
		}
		return gpuCost * 10
	}}
	tk.SetUniformWeight()
	return tk
}

// spawnBatch spawns a process that runs batch on ex and stores the batch's
// duration in *dur.
func spawnBatch(k *sim.Kernel, ex *Executor, batch []*task.Task, dur *sim.Time) {
	k.SpawnStep("gpu", func(e *sim.Env) sim.Cont {
		start := e.Now()
		return ex.RunBatchThen(e, batch, func(e *sim.Env) sim.Cont {
			*dur = e.Now() - start
			return sim.Done()
		})
	})
}

func runBatchOn(t *testing.T, async bool, n int, size int64, gpuCost sim.Time, cfg hw.LinkConfig) sim.Time {
	t.Helper()
	k := sim.NewKernel(1)
	dev := hw.NewDevice(k, hw.GPU, 0)
	link := hw.NewLink(k, cfg)
	ex := NewExecutor(dev, link, async)
	batch := make([]*task.Task, n)
	for i := range batch {
		batch[i] = mkXferTask(size, size, gpuCost)
	}
	var dur sim.Time
	spawnBatch(k, ex, batch, &dur)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return dur
}

func TestSyncBatchIsSumOfPhases(t *testing.T) {
	cfg := hw.LinkConfig{BandwidthBps: 1e9, Latency: 0}
	// each event: 1ms in + 2ms kernel + 1ms out = 4ms
	got := runBatchOn(t, false, 3, 1e6, 2*sim.Millisecond, cfg)
	want := 12 * sim.Millisecond
	if diff := got - want; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("sync batch = %v, want %v", got, want)
	}
}

func TestAsyncOverlapsCopiesWithCompute(t *testing.T) {
	cfg := hw.LinkConfig{BandwidthBps: 1e9, Latency: 0}
	sync := runBatchOn(t, false, 8, 1e6, 2*sim.Millisecond, cfg)
	async := runBatchOn(t, true, 8, 1e6, 2*sim.Millisecond, cfg)
	if async >= sync {
		t.Fatalf("async (%v) not faster than sync (%v)", async, sync)
	}
	// Ideal async per Algorithm 1: first copy (1ms) + 8 kernels (16ms) +
	// 8 serialized D2H copies (8ms) = 25ms, vs 32ms sync.
	if async > 25*sim.Millisecond+sim.Microsecond {
		t.Fatalf("async batch = %v, want 25ms", async)
	}
}

func TestAsyncThroughputSaturatesWithCongestion(t *testing.T) {
	// With congestion, per-event time first drops with batch size, then
	// rises again: the shape Figure 7 shows and Algorithm 1 searches.
	cfg := hw.LinkConfig{BandwidthBps: 1e9, Latency: 50 * sim.Microsecond, Congestion: 0.08}
	per := func(n int) float64 {
		d := runBatchOn(t, true, n, 1e6, 1200*sim.Microsecond, cfg)
		return float64(d) / float64(n)
	}
	small, mid, large := per(1), per(8), per(96)
	if mid >= small {
		t.Fatalf("batching did not help: per-event %v (n=1) vs %v (n=8)", small, mid)
	}
	if large <= mid {
		t.Fatalf("no saturation: per-event %v (n=8) vs %v (n=96)", mid, large)
	}
}

func TestExecutorNilArgsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewExecutor(nil, nil, true)
}

func TestEmptyBatchIsFree(t *testing.T) {
	k := sim.NewKernel(1)
	dev := hw.NewDevice(k, hw.GPU, 0)
	link := hw.NewLink(k, hw.DefaultLink)
	ex := NewExecutor(dev, link, true)
	d := sim.Time(-1)
	spawnBatch(k, ex, nil, &d)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d != 0 {
		t.Errorf("empty batch took %v", d)
	}
}

func TestControllerPlateauHoldsSteady(t *testing.T) {
	// Equal throughput (neither > nor <) leaves the concurrency unchanged,
	// exactly as Algorithm 1's two guarded branches imply.
	c := NewController(0)
	c.Observe(5)
	c.Observe(6) // growth to 4
	at := c.Concurrent()
	for i := 0; i < 10; i++ {
		c.Observe(6)
	}
	if c.Concurrent() != at {
		t.Fatalf("plateau moved concurrency: %d -> %d", at, c.Concurrent())
	}
}

func TestControllerNoDecreaseAtFloorTwo(t *testing.T) {
	// Algorithm 1 only backs off when concurrentEvents > 2.
	c := NewController(0)
	c.Observe(10)
	c.Observe(5) // decrease observed, but concurrent == 2: no change
	if c.Concurrent() != 2 {
		t.Fatalf("concurrent = %d, want 2", c.Concurrent())
	}
	if c.SaturationFound() {
		t.Fatal("saturation should not be flagged at the floor")
	}
}

func TestSyncModeIgnoresBatching(t *testing.T) {
	// In sync mode the executor still processes every event, just without
	// overlap; durations are additive regardless of batch grouping.
	cfg := hw.LinkConfig{BandwidthBps: 1e9, Latency: 0}
	oneBatch := runBatchOn(t, false, 6, 1e6, sim.Millisecond, cfg)
	var split sim.Time
	for i := 0; i < 3; i++ {
		split += runBatchOn(t, false, 2, 1e6, sim.Millisecond, cfg)
	}
	if d := oneBatch - split; d > 1e-12 || d < -1e-12 {
		t.Fatalf("sync batching changed total time: %v vs %v", oneBatch, split)
	}
}

// runSpecBatch executes one batch described by per-task (size, out, cost)
// specs on a fresh kernel/device/link, so sync and async runs see identical
// workloads.
func runSpecBatch(t *testing.T, async bool, specs [][3]int64, cfg hw.LinkConfig) sim.Time {
	t.Helper()
	k := sim.NewKernel(1)
	dev := hw.NewDevice(k, hw.GPU, 0)
	link := hw.NewLink(k, cfg)
	ex := NewExecutor(dev, link, async)
	batch := make([]*task.Task, len(specs))
	for i, s := range specs {
		size, out, cost := s[0], s[1], sim.Time(s[2])*sim.Microsecond
		tk := &task.Task{Size: size, OutSize: out,
			Cost: func(_ *task.Task, k hw.Kind) sim.Time { return cost }}
		tk.SetUniformWeight()
		batch[i] = tk
	}
	var dur sim.Time
	spawnBatch(k, ex, batch, &dur)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return dur
}

// TestAsyncNeverSlowerThanSyncProperty: on a congestion-free link, the
// asynchronous pipeline (Algorithm 1) is never slower than synchronous
// copy-kernel-copy for the same batch — overlap can only help when extra
// in-flight copies don't degrade the wire. (With congestion > 0 the
// property is genuinely false: a zero-kernel batch of k transfers pays
// c·w·k(k-1)/2 extra wire time under concurrent copies, which is why the
// link here is congestion-free and why Figure 7's curves turn upward.)
func TestAsyncNeverSlowerThanSyncProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 60; trial++ {
		n := 1 + rng.Intn(12)
		specs := make([][3]int64, n)
		for i := range specs {
			specs[i] = [3]int64{
				1 + rng.Int63n(2_000_000), // h2d bytes
				rng.Int63n(1_000_000),     // d2h bytes (0 allowed)
				rng.Int63n(3_000),         // kernel us (0 allowed)
			}
		}
		cfg := hw.LinkConfig{
			BandwidthBps: 1e8 + rng.Float64()*9e8,
			Latency:      sim.Time(rng.Int63n(100)) * sim.Microsecond,
			Congestion:   0,
		}
		syncT := runSpecBatch(t, false, specs, cfg)
		asyncT := runSpecBatch(t, true, specs, cfg)
		if asyncT > syncT+1e-12 {
			t.Fatalf("trial %d: async (%v) slower than sync (%v) on congestion-free link; specs=%v cfg=%+v",
				trial, asyncT, syncT, specs, cfg)
		}
	}
}

// TestAsyncEqualsSyncSingleTask: a single-task batch has nothing to
// overlap, so both modes execute the identical copy-kernel-copy sequence
// and must take exactly the same virtual time — on any link, congested or
// not (one in-flight transfer never pays a congestion penalty).
func TestAsyncEqualsSyncSingleTask(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 40; trial++ {
		specs := [][3]int64{{
			1 + rng.Int63n(4_000_000),
			rng.Int63n(2_000_000),
			rng.Int63n(5_000),
		}}
		cfg := hw.LinkConfig{
			BandwidthBps: 1e8 + rng.Float64()*9e8,
			Latency:      sim.Time(rng.Int63n(200)) * sim.Microsecond,
			Congestion:   rng.Float64() * 0.1,
		}
		syncT := runSpecBatch(t, false, specs, cfg)
		asyncT := runSpecBatch(t, true, specs, cfg)
		if asyncT != syncT {
			t.Fatalf("trial %d: single-task async (%v) != sync (%v); specs=%v cfg=%+v",
				trial, asyncT, syncT, specs, cfg)
		}
	}
}

// batchSpans runs batches of the given sizes through asynchronous
// executors on one GPU and link and returns every span in order. procs
// processes each run the whole sequence at once; with shared set they all
// use one executor, otherwise each batch gets a fresh one.
func batchSpans(t *testing.T, sizes []int, procs int, shared bool) []Span {
	t.Helper()
	k := sim.NewKernel(1)
	dev := hw.NewDevice(k, hw.GPU, 0)
	link := hw.NewLink(k, hw.LinkConfig{BandwidthBps: 5e8, Latency: 10 * sim.Microsecond, Congestion: 0.03})
	var spans []Span
	record := func(sp Span) { spans = append(spans, sp) }
	one := NewExecutor(dev, link, true)
	one.OnSpan = record
	id := uint64(0)
	for p := 0; p < procs; p++ {
		next := 0
		var run sim.Step
		run = func(e *sim.Env) sim.Cont {
			if next == len(sizes) {
				return sim.Done()
			}
			n := sizes[next]
			next++
			ex := one
			if !shared {
				ex = NewExecutor(dev, link, true)
				ex.OnSpan = record
			}
			batch := make([]*task.Task, n)
			for i := range batch {
				id++
				batch[i] = mkXferTask(int64(1000*(1+i%3)), 500, sim.Time(i%4)*sim.Microsecond)
				batch[i].ID = id
			}
			return ex.RunBatchThen(e, batch, run)
		}
		k.SpawnStep("gpu", run)
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return spans
}

// TestReusedExecutorMatchesFresh: an executor that reuses its copy records,
// signals and wait group across batches of growing and shrinking size, and
// across two processes running batches on it at once, produces exactly the
// spans of a fresh executor per batch.
func TestReusedExecutorMatchesFresh(t *testing.T) {
	sizes := []int{3, 1, 6, 2, 6, 4}
	for _, procs := range []int{1, 2} {
		got, want := batchSpans(t, sizes, procs, true), batchSpans(t, sizes, procs, false)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%d processes: reused executor's spans differ from fresh executors'\n got %v\nwant %v", procs, got, want)
		}
	}
}
