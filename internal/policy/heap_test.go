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
// deletion, the same compaction when the queue empties.
type refQueue struct {
	heaps [hw.NumKinds]refHeap
	gone  map[uint64]bool
	n     int
}

func (r *refQueue) push(t *task.Task) {
	r.n++
	delete(r.gone, t.ID)
	for _, k := range hw.Kinds {
		heap.Push(&r.heaps[k], heapItem{t: t, key: t.Key[k]})
	}
}

// remove is what a pop through any view does to the other views.
func (r *refQueue) remove(t *task.Task) {
	r.n--
	r.gone[t.ID] = true
	if r.n == 0 {
		for k := range r.heaps {
			r.heaps[k] = r.heaps[k][:0]
		}
		r.gone = map[uint64]bool{}
	}
}

func (r *refQueue) popFor(kind hw.Kind) *task.Task {
	if r.n == 0 {
		return nil
	}
	h := &r.heaps[kind]
	for h.Len() > 0 {
		if it := heap.Pop(h).(heapItem); !r.gone[it.t.ID] {
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
		if !r.gone[(*h)[0].t.ID] {
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
// same per-kind heap arrays entry for entry.
func TestTaskHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue(Sorted)
		ref := &refQueue{gone: map[uint64]bool{}}
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
					if gh[i] != rh[i] {
						t.Fatalf("seed %d op %d: %v heap entry %d is task %d, reference task %d",
							seed, op, k, i, gh[i].t.ID, rh[i].t.ID)
					}
				}
			}
		}
	}
}
