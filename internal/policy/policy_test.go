package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/task"
)

func mkTask(id uint64, gpuSpeedup float64) *task.Task {
	t := &task.Task{ID: id, Seq: id}
	t.Weight[hw.CPU] = 1
	t.Weight[hw.GPU] = gpuSpeedup
	t.ComputeKeys()
	return t
}

func TestFCFSPopsOldestForAnyKind(t *testing.T) {
	q := NewQueue(FCFS)
	q.Push(mkTask(1, 30))
	q.Push(mkTask(2, 1))
	q.Push(mkTask(3, 10))
	if got := q.PopFor(hw.GPU); got.ID != 1 {
		t.Fatalf("first pop = %d, want 1", got.ID)
	}
	if got := q.PopFor(hw.CPU); got.ID != 2 {
		t.Fatalf("second pop = %d, want 2", got.ID)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestSortedGPUGetsHighestSpeedup(t *testing.T) {
	q := NewQueue(Sorted)
	q.Push(mkTask(1, 1))
	q.Push(mkTask(2, 33))
	q.Push(mkTask(3, 10))
	if got := q.PopFor(hw.GPU); got.ID != 2 {
		t.Fatalf("GPU pop = %d, want 2 (speedup 33)", got.ID)
	}
}

func TestSortedCPUGetsLowestGPUSpeedup(t *testing.T) {
	// The CPU's relative advantage is highest where the GPU's speedup is
	// lowest: DDWRR must steer low-resolution tiles to the CPU (Table 4).
	q := NewQueue(Sorted)
	q.Push(mkTask(1, 33))
	q.Push(mkTask(2, 1))
	q.Push(mkTask(3, 10))
	if got := q.PopFor(hw.CPU); got.ID != 2 {
		t.Fatalf("CPU pop = %d, want 2 (speedup 1)", got.ID)
	}
}

func TestSortedPopRemovesFromAllViews(t *testing.T) {
	q := NewQueue(Sorted)
	q.Push(mkTask(1, 5))
	if got := q.PopFor(hw.GPU); got.ID != 1 {
		t.Fatalf("pop = %v", got)
	}
	if got := q.PopFor(hw.CPU); got != nil {
		t.Fatalf("task visible through second view: %v", got.ID)
	}
	if q.Len() != 0 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestSortedTieBreaksFIFO(t *testing.T) {
	q := NewQueue(Sorted)
	q.Push(mkTask(7, 4))
	q.Push(mkTask(8, 4))
	if got := q.PopFor(hw.GPU); got.ID != 7 {
		t.Fatalf("tie pop = %d, want 7", got.ID)
	}
}

func TestPeekKeyFor(t *testing.T) {
	q := NewQueue(Sorted)
	if _, ok := q.PeekKeyFor(hw.GPU); ok {
		t.Fatal("peek on empty queue")
	}
	q.Push(mkTask(1, 8))
	key, ok := q.PeekKeyFor(hw.GPU)
	if !ok || key != 8 {
		t.Fatalf("peek = %v, %v", key, ok)
	}
	if q.Len() != 1 {
		t.Fatal("peek must not remove")
	}
}

func TestQueueConservationProperty(t *testing.T) {
	// Property: pushing N tasks and popping until empty (alternating device
	// kinds) yields each task exactly once, for both orderings.
	f := func(seed int64, sorted bool) bool {
		rng := rand.New(rand.NewSource(seed))
		ord := FCFS
		if sorted {
			ord = Sorted
		}
		q := NewQueue(ord)
		const n = 50
		for i := 0; i < n; i++ {
			q.Push(mkTask(uint64(i), 0.5+rng.Float64()*32))
		}
		seen := make(map[uint64]bool)
		for i := 0; q.Len() > 0; i++ {
			kind := hw.CPU
			if i%2 == 0 {
				kind = hw.GPU
			}
			tk := q.PopFor(kind)
			if tk == nil || seen[tk.ID] {
				return false
			}
			seen[tk.ID] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestSortedPopMonotoneProperty(t *testing.T) {
	// Property: draining a sorted queue from a single device kind yields
	// nonincreasing keys.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue(Sorted)
		for i := 0; i < 40; i++ {
			q.Push(mkTask(uint64(i), 0.5+rng.Float64()*32))
		}
		prev := -1.0
		for q.Len() > 0 {
			tk := q.PopFor(hw.GPU)
			if prev >= 0 && tk.Key[hw.GPU] > prev {
				return false
			}
			prev = tk.Key[hw.GPU]
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestComputeKeysRelativeAdvantage(t *testing.T) {
	tk := mkTask(1, 4)
	if tk.Key[hw.GPU] != 4 {
		t.Fatalf("GPU key = %v, want 4", tk.Key[hw.GPU])
	}
	if tk.Key[hw.CPU] != 0.25 {
		t.Fatalf("CPU key = %v, want 0.25", tk.Key[hw.CPU])
	}
}

func TestDQAAConvergesToLatencyRatio(t *testing.T) {
	d := NewDQAA(0)
	// Latency 10x processing time: target should settle around 10.
	for i := 0; i < 100; i++ {
		d.Observe(10, 1)
	}
	if got := d.Target(); got != 10 {
		t.Fatalf("target = %d, want 10", got)
	}
}

func TestDQAAShrinksAtTail(t *testing.T) {
	d := NewDQAA(0)
	for i := 0; i < 50; i++ {
		d.Observe(20, 1)
	}
	// Processing time grows (high-res build-up at the end of a run):
	// target must fall, reducing load imbalance (Figure 12b).
	for i := 0; i < 50; i++ {
		d.Observe(20, 10)
	}
	if got := d.Target(); got != 2 {
		t.Fatalf("target = %d, want 2", got)
	}
}

func TestDQAANeverBelowFloorOrAboveMax(t *testing.T) {
	d := NewDQAA(8)
	for i := 0; i < 100; i++ {
		d.Observe(0, 1)
	}
	// Floor is 2: one buffer in transit plus one queued.
	if d.Target() != 2 {
		t.Fatalf("target = %d, want floor 2", d.Target())
	}
	for i := 0; i < 100; i++ {
		d.Observe(1000, 1)
	}
	if d.Target() != 8 {
		t.Fatalf("target = %d, want capped 8", d.Target())
	}
}

func TestDQAAZeroProcessTimeGrows(t *testing.T) {
	d := NewDQAA(4)
	d.Observe(1, 0)
	if d.Target() != 3 {
		t.Fatalf("target = %d, want 3", d.Target())
	}
}

func TestStreamPolicyConstructors(t *testing.T) {
	p := DDFCFS(16)
	if p.Sender != FCFS || p.Receiver != FCFS || p.Dynamic || p.RequestSize != 16 {
		t.Fatalf("DDFCFS = %+v", p)
	}
	w := DDWRR(8)
	if w.Sender != FCFS || w.Receiver != Sorted || w.Dynamic {
		t.Fatalf("DDWRR = %+v", w)
	}
	o := ODDS()
	if o.Sender != Sorted || o.Receiver != Sorted || !o.Dynamic {
		t.Fatalf("ODDS = %+v", o)
	}
	if o.String() != "ODDS(dynamic)" || p.String() != "DDFCFS(req=16)" {
		t.Fatalf("strings: %s %s", o, p)
	}
}

func TestRepushAfterPop(t *testing.T) {
	// A task that cycles back into a queue it previously visited must be
	// poppable again (the re-push takes a fresh stamp).
	for _, ord := range []Ordering{FCFS, Sorted} {
		q := NewQueue(ord)
		tk := mkTask(42, 5)
		q.Push(tk)
		if got := q.PopFor(hw.GPU); got == nil || got.ID != 42 {
			t.Fatalf("%v: first pop = %v", ord, got)
		}
		q.Push(tk)
		got := q.PopFor(hw.CPU)
		if got == nil || got.ID != 42 {
			t.Fatalf("%v: re-pushed task not poppable: %v", ord, got)
		}
		if q.Len() != 0 {
			t.Fatalf("%v: len = %d", ord, q.Len())
		}
	}
}

func TestPeekKeySkipsTombstonesFIFO(t *testing.T) {
	// Peek must skip tasks already popped through another view.
	q := NewQueue(FCFS)
	a := mkTask(1, 3)
	b := mkTask(2, 7)
	q.Push(a)
	q.Push(b)
	if got := q.PopFor(hw.GPU); got.ID != 1 {
		t.Fatalf("pop = %v", got.ID)
	}
	key, ok := q.PeekKeyFor(hw.GPU)
	if !ok || key != 7 {
		t.Fatalf("peek after pop = %v, %v", key, ok)
	}
	if q.Ordering() != FCFS || q.Ordering().String() != "FCFS" {
		t.Fatal("ordering accessor")
	}
	if Sorted.String() != "Sorted" {
		t.Fatal("sorted string")
	}
}

func TestPeekKeySkipsTombstonesSorted(t *testing.T) {
	q := NewQueue(Sorted)
	q.Push(mkTask(1, 30))
	q.Push(mkTask(2, 5))
	// Pop the GPU-best through the GPU view; the CPU heap still holds a
	// stale entry for it that PeekKeyFor must discard lazily.
	if got := q.PopFor(hw.GPU); got.ID != 1 {
		t.Fatalf("pop = %v", got.ID)
	}
	key, ok := q.PeekKeyFor(hw.CPU)
	if !ok || key != mkTask(2, 5).Key[hw.CPU] {
		t.Fatalf("peek = %v, %v", key, ok)
	}
}

// TestPolicyStringRoundTrip pins the canonical string of every policy
// constructor in the registry, so a new policy cannot ship without its
// String() being checked (String() regressions have shipped twice: push
// streams printing the struct-default "req=1", and the fault event's
// "lat=0"). The test iterates Constructors() and demands an expected
// string for each registered name — adding a constructor without extending
// the table below fails loudly.
func TestPolicyStringRoundTrip(t *testing.T) {
	want := map[string]string{
		"DDFCFS":   "DDFCFS(req=4)",
		"DDWRR":    "DDWRR(req=4)",
		"ODDS":     "ODDS(dynamic)",
		"RR-push":  "RR-push(push)",
		"AFFINITY": "AFFINITY(sched,req=4)",
		"HYBRID":   "HYBRID(sched,req=4)",
		"BANDIT":   "BANDIT(sched,req=4)",
	}
	seen := make(map[string]bool)
	for _, c := range Constructors() {
		exp, ok := want[c.Name]
		if !ok {
			t.Fatalf("constructor %q registered without a String() round-trip entry — add it to this test", c.Name)
		}
		pol := c.New()
		if pol.Name != c.Name {
			t.Errorf("constructor %q builds policy named %q", c.Name, pol.Name)
		}
		if got := pol.String(); got != exp {
			t.Errorf("%s.String() = %q, want %q", c.Name, got, exp)
		}
		if seen[c.Name] {
			t.Errorf("constructor %q registered twice", c.Name)
		}
		seen[c.Name] = true
	}
	for name := range want {
		if !seen[name] {
			t.Errorf("expected constructor %q missing from Constructors()", name)
		}
	}
	// Non-registry request sizes keep their explicit form.
	if got := DDFCFS(16).String(); got != "DDFCFS(req=16)" {
		t.Errorf("DDFCFS(16) = %q", got)
	}
	if got := DDWRR(32).String(); got != "DDWRR(req=32)" {
		t.Errorf("DDWRR(32) = %q", got)
	}
	// Schedulers are stateful: every registry call must build a fresh one.
	cs := Constructors()
	for i, c := range cs {
		if c.New().Sched != nil && c.New().Sched == cs[i].New().Sched {
			t.Errorf("constructor %q shares scheduler state across New() calls", c.Name)
		}
	}
}
