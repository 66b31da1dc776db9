package policy

import (
	"container/heap"
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/task"
)

// refHeap is the container/heap adapter taskHeap replaced, kept as the
// reference its sift must match.
type refHeap []heapItem

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return taskHeap(h).less(i, j) }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(heapItem)) }
func (h *refHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	*h = old[:n-1]
	return it
}

// refQueue is the Sorted side of Queue on container/heap: the same lazy
// deletion by push stamp, the same compaction when the queue empties, and
// the same pruning of a heap whose dead entries outnumber its live ones
// (keep the live entries in array order, then heap.Init). Live
// stamps are a set and each queued task's current stamp a map, so the
// reference shares none of the bitset's arithmetic.
type refQueue struct {
	heaps [hw.NumKinds]refHeap
	live  map[uint64]bool       // stamps of the queued pushes
	cur   map[*task.Task]uint64 // each queued task's stamp
	stamp uint64
	n     int
}

func newRefQueue() *refQueue {
	return &refQueue{live: map[uint64]bool{}, cur: map[*task.Task]uint64{}}
}

func (r *refQueue) push(t *task.Task) {
	r.n++
	s := r.stamp
	r.stamp++
	r.live[s] = true
	r.cur[t] = s
	for _, k := range hw.Kinds {
		if h := &r.heaps[k]; h.Len() > 2*(r.n-1) {
			var kept refHeap
			for _, it := range *h {
				if r.live[it.stamp] {
					kept = append(kept, it)
				}
			}
			*h = kept
			heap.Init(h)
		}
		heap.Push(&r.heaps[k], heapItem{t: t, key: t.Key[k], seq: t.Seq, stamp: s})
	}
}

// remove is what a pop through any view does to the other views.
func (r *refQueue) remove(t *task.Task) {
	r.n--
	delete(r.live, r.cur[t])
	delete(r.cur, t)
	if r.n == 0 {
		for k := range r.heaps {
			r.heaps[k] = r.heaps[k][:0]
		}
		r.live = map[uint64]bool{}
		r.stamp = 0
	}
}

func (r *refQueue) popFor(kind hw.Kind) *task.Task {
	if r.n == 0 {
		return nil
	}
	h := &r.heaps[kind]
	for h.Len() > 0 {
		if it := heap.Pop(h).(heapItem); r.live[it.stamp] {
			r.remove(it.t)
			return it.t
		}
	}
	return nil
}

func (r *refQueue) peekKeyFor(kind hw.Kind) (float64, bool) {
	if r.n == 0 {
		return 0, false
	}
	h := &r.heaps[kind]
	for h.Len() > 0 {
		if r.live[(*h)[0].stamp] {
			return (*h)[0].key, true
		}
		heap.Pop(h)
	}
	return 0, false
}

// TestTaskHeapMatchesContainerHeap drives a Sorted Queue and the
// container/heap reference with the same random sequences — fresh pushes
// with tied keys, re-pushes of popped tasks (with and without a new Seq),
// PopFor and PeekKeyFor on either kind, and lazy deletions through
// PopRanked — and requires the same pop sequence and, after every step, the
// same per-kind heap arrays entry for entry, compared by (task, key).
func TestTaskHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue(Sorted)
		ref := newRefQueue()
		var popped []*task.Task // candidates for re-push
		var nextID, seq uint64
		for op := 0; op < 600; op++ {
			kind := hw.Kinds[rng.Intn(len(hw.Kinds))]
			switch r := rng.Float64(); {
			case r < 0.45:
				nextID++
				seq++
				tk := &task.Task{ID: nextID, Seq: seq}
				for _, k := range hw.Kinds {
					tk.Key[k] = float64(rng.Intn(4)) // few distinct keys: many ties
				}
				q.Push(tk)
				ref.push(tk)
			case r < 0.55 && len(popped) > 0:
				i := rng.Intn(len(popped))
				tk := popped[i]
				popped = append(popped[:i], popped[i+1:]...)
				if rng.Intn(2) == 0 {
					seq++
					tk.Seq = seq // crash re-enqueue; pass-through keeps its Seq
				}
				q.Push(tk)
				ref.push(tk)
			case r < 0.65:
				gk, gok := q.PeekKeyFor(kind)
				wk, wok := ref.peekKeyFor(kind)
				if gk != wk || gok != wok {
					t.Fatalf("seed %d op %d: PeekKeyFor(%v) = %v,%v, reference %v,%v", seed, op, kind, gk, gok, wk, wok)
				}
			case r < 0.72:
				tk := q.PopRanked(func(t *task.Task) float64 { return -float64(t.ID % 7) })
				if tk != nil {
					ref.remove(tk)
					popped = append(popped, tk)
				}
			default:
				got, want := q.PopFor(kind), ref.popFor(kind)
				if got != want {
					t.Fatalf("seed %d op %d: PopFor(%v) = %v, reference %v", seed, op, kind, got, want)
				}
				if got != nil {
					popped = append(popped, got)
				}
			}
			for _, k := range hw.Kinds {
				gh, rh := q.heaps[k], ref.heaps[k]
				if len(gh) != len(rh) {
					t.Fatalf("seed %d op %d: %v heap has %d entries, reference %d", seed, op, k, len(gh), len(rh))
				}
				for i := range gh {
					if gh[i].t != rh[i].t || gh[i].key != rh[i].key {
						t.Fatalf("seed %d op %d: %v heap entry %d is task %d, reference task %d",
							seed, op, k, i, gh[i].t.ID, rh[i].t.ID)
					}
				}
			}
		}
	}
}

// TestRepushKeepsStaleEntriesDead pins the FIFO tie rule across a crash
// re-enqueue: X is popped through the CPU view and pushed again with a
// newer Seq, so an older task Y with the same GPU key must come first. X's
// GPU entry from its first push sits above Y's in the heap, and it must
// stay dead after the re-push.
func TestRepushKeepsStaleEntriesDead(t *testing.T) {
	q := NewQueue(Sorted)
	x := &task.Task{ID: 1, Seq: 1}
	x.Key[hw.GPU], x.Key[hw.CPU] = 5, 9
	y := &task.Task{ID: 2, Seq: 2}
	y.Key[hw.GPU], y.Key[hw.CPU] = 5, 1
	q.Push(x)
	q.Push(y)
	if got := q.PopFor(hw.CPU); got != x {
		t.Fatalf("PopFor(CPU) = task %d, want X", got.ID)
	}
	x.Seq = 3 // crash re-enqueue
	q.Push(x)
	if got := q.PopFor(hw.GPU); got != y {
		t.Fatalf("PopFor(GPU) = task %d (Seq %d), want Y (Seq 2): a stale entry came back to life", got.ID, got.Seq)
	}
	if got := q.PopFor(hw.GPU); got != x {
		t.Fatalf("second PopFor(GPU) = %v, want X", got)
	}
	if got := q.PopFor(hw.GPU); got != nil || q.Len() != 0 {
		t.Fatalf("drained queue pops %v, Len %d", got, q.Len())
	}
}

// TestSortedPopOrderMatchesModel checks every PopFor of a Sorted queue
// against a brute-force model, the highest key for the kind and then the
// lowest Seq, over random pushes with tied keys and crash re-enqueues that
// give popped tasks a new Seq. Entries ordered by the task's current Seq
// rather than the one it was pushed with fail this: the re-enqueue changes
// the order of the task's dead entries in place and breaks the heap.
func TestSortedPopOrderMatchesModel(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue(Sorted)
		live := map[*task.Task]bool{}
		var popped []*task.Task
		var nextID, seq uint64
		for op := 0; op < 60; op++ {
			switch r := rng.Intn(10); {
			case r < 4:
				nextID++
				seq++
				tk := &task.Task{ID: nextID, Seq: seq}
				for _, k := range hw.Kinds {
					tk.Key[k] = float64(rng.Intn(2))
				}
				q.Push(tk)
				live[tk] = true
			case r < 6 && len(popped) > 0:
				i := rng.Intn(len(popped))
				tk := popped[i]
				popped = append(popped[:i], popped[i+1:]...)
				seq++
				tk.Seq = seq
				q.Push(tk)
				live[tk] = true
			default:
				kind := hw.Kinds[rng.Intn(len(hw.Kinds))]
				var want *task.Task
				for tk := range live {
					if want == nil || tk.Key[kind] > want.Key[kind] ||
						(tk.Key[kind] == want.Key[kind] && tk.Seq < want.Seq) {
						want = tk
					}
				}
				got := q.PopFor(kind)
				if got != want {
					t.Fatalf("seed %d op %d: PopFor(%v) = %+v, model %+v", seed, op, kind, got, want)
				}
				if got != nil {
					delete(live, got)
					popped = append(popped, got)
				}
			}
		}
	}
}

// TestPruneBoundsHeaps: when nearly every pop goes through the GPU view,
// the CPU heap's dead entries would pile up until the queue empties. With
// pruning, right after any Push each heap holds at most 2*Len()-1 entries:
// the prune trigger (more than twice the live entries before the push)
// plus the pushed entry. Pops come out in the model order throughout.
func TestPruneBoundsHeaps(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	q := NewQueue(Sorted)
	live := map[*task.Task]bool{}
	var seq uint64
	push := func() {
		seq++
		tk := &task.Task{ID: seq, Seq: seq}
		tk.Key[hw.GPU] = float64(rng.Intn(8))
		tk.Key[hw.CPU] = float64(rng.Intn(8))
		q.Push(tk)
		live[tk] = true
		for _, k := range hw.Kinds {
			if n := len(q.heaps[k]); n > 2*q.Len()-1 {
				t.Fatalf("push %d: %v heap has %d entries for %d queued tasks", seq, k, n, q.Len())
			}
		}
	}
	for range 64 {
		push()
	}
	for op := 0; op < 20000; op++ {
		if rng.Intn(2) == 0 || q.Len() == 1 {
			push()
			continue
		}
		kind := hw.GPU
		if rng.Intn(20) == 0 {
			kind = hw.CPU
		}
		var want *task.Task
		for tk := range live {
			if want == nil || tk.Key[kind] > want.Key[kind] ||
				(tk.Key[kind] == want.Key[kind] && tk.Seq < want.Seq) {
				want = tk
			}
		}
		if got := q.PopFor(kind); got != want {
			t.Fatalf("op %d: PopFor(%v) = %+v, model %+v", op, kind, got, want)
		}
		delete(live, want)
	}
}
