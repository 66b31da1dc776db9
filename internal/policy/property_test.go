package policy

import (
	"math/rand"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
)

// newTask builds a task with random device weights, mirroring what the
// estimator produces for real tiles.
func newTask(rng *rand.Rand, id uint64, seq uint64) *task.Task {
	t := &task.Task{ID: id, Seq: seq}
	t.Weight[hw.CPU] = 1
	t.Weight[hw.GPU] = 0.5 + 30*rng.Float64()
	t.ComputeKeys()
	return t
}

// TestQueueNoLossNoDuplication drives each queue ordering with seeded random
// sequences of the events the runtime generates — demand (pop), delivery
// (push), and crash recovery (evacuate-and-re-push, which exercises the
// re-push rule) — against a model set, checking that no task
// is ever lost, duplicated, or returned while absent.
func TestQueueNoLossNoDuplication(t *testing.T) {
	for _, ord := range []Ordering{FCFS, Sorted} {
		ord := ord
		t.Run(ord.String(), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				q := NewQueue(ord)
				inside := map[uint64]bool{} // IDs currently queued
				var limbo []*task.Task      // popped tasks eligible for crash re-push
				var nextID, seq uint64
				popped := map[uint64]int{}
				pushed := map[uint64]int{}
				for op := 0; op < 500; op++ {
					switch r := rng.Float64(); {
					case r < 0.45: // delivery of a fresh buffer
						nextID++
						seq++
						tk := newTask(rng, nextID, seq)
						q.Push(tk)
						inside[tk.ID] = true
						pushed[tk.ID]++
					case r < 0.55 && len(limbo) > 0: // crash recovery: re-enqueue
						i := rng.Intn(len(limbo))
						tk := limbo[i]
						limbo = append(limbo[:i], limbo[i+1:]...)
						seq++
						tk.Seq = seq
						q.Push(tk)
						inside[tk.ID] = true
						pushed[tk.ID]++
					default: // demand
						kind := hw.Kinds[rng.Intn(len(hw.Kinds))]
						tk := q.PopFor(kind)
						if tk == nil {
							if len(inside) != 0 {
								t.Fatalf("seed %d op %d: pop returned nil with %d tasks queued", seed, op, len(inside))
							}
							continue
						}
						if !inside[tk.ID] {
							t.Fatalf("seed %d op %d: popped task %d that is not queued", seed, op, tk.ID)
						}
						delete(inside, tk.ID)
						popped[tk.ID]++
						if rng.Float64() < 0.3 {
							limbo = append(limbo, tk) // held by a worker that may die
						}
					}
					if q.Len() != len(inside) {
						t.Fatalf("seed %d op %d: Len() = %d, model has %d", seed, op, q.Len(), len(inside))
					}
				}
				// Drain: everything still inside must come out exactly once.
				for q.Len() > 0 {
					tk := q.PopFor(hw.CPU)
					if tk == nil {
						t.Fatalf("seed %d: drain returned nil with %d queued", seed, q.Len()+1)
					}
					if !inside[tk.ID] {
						t.Fatalf("seed %d: drain produced absent task %d", seed, tk.ID)
					}
					delete(inside, tk.ID)
					popped[tk.ID]++
				}
				if len(inside) != 0 {
					t.Fatalf("seed %d: %d tasks lost in drain", seed, len(inside))
				}
				for id, n := range pushed {
					if popped[id] != n {
						t.Fatalf("seed %d: task %d pushed %d times but popped %d", seed, id, n, popped[id])
					}
				}
			}
		})
	}
}

// TestSortedQueuePopsBestKey checks the DBSA selection property under random
// interleavings: a Sorted queue's PopFor(kind) must return a task with the
// maximum relative-advantage key for that class among all queued tasks
// (FIFO-tie-broken), for every prefix of the sequence.
func TestSortedQueuePopsBestKey(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		q := NewQueue(Sorted)
		inside := map[uint64]*task.Task{}
		var nextID, seq uint64
		for op := 0; op < 400; op++ {
			if rng.Float64() < 0.55 {
				nextID++
				seq++
				tk := newTask(rng, nextID, seq)
				q.Push(tk)
				inside[tk.ID] = tk
				continue
			}
			kind := hw.Kinds[rng.Intn(len(hw.Kinds))]
			tk := q.PopFor(kind)
			if tk == nil {
				if len(inside) != 0 {
					t.Fatalf("seed %d: nil pop with %d queued", seed, len(inside))
				}
				continue
			}
			best := tk.Key[kind]
			for _, other := range inside {
				if other.Key[kind] > best {
					t.Fatalf("seed %d op %d: popped key %g for %v but task %d has %g",
						seed, op, best, kind, other.ID, other.Key[kind])
				}
			}
			delete(inside, tk.ID)
		}
	}
}

// TestDQAABoundsProperty feeds DQAA controllers random latency/processing
// observations — including the zero-processing-time edge — and asserts the
// streamRequestsSize target never leaves [floor, max] and moves by at most
// one step per observation, for random configured bounds.
func TestDQAABoundsProperty(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		floor := 1 + rng.Intn(8)
		max := floor + rng.Intn(64)
		d := NewDQAATuned(floor, max)
		if d.Target() != floor {
			t.Fatalf("seed %d: initial target %d != floor %d", seed, d.Target(), floor)
		}
		prev := d.Target()
		for i := 0; i < 2000; i++ {
			lat := sim.Time(rng.Float64()) * 50 * sim.Millisecond
			proc := sim.Time(rng.Float64()) * 5 * sim.Millisecond
			if rng.Float64() < 0.05 {
				proc = 0 // instantaneous processing edge case
			}
			got := d.Observe(lat, proc)
			if got < floor || got > max {
				t.Fatalf("seed %d obs %d: target %d outside [%d, %d]", seed, i, got, floor, max)
			}
			if diff := got - prev; diff < -1 || diff > 1 {
				t.Fatalf("seed %d obs %d: target jumped %d -> %d", seed, i, prev, got)
			}
			prev = got
		}
	}
}
