//go:build !race

package policy

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/task"
)

// TestQueueFillDrainAllocs: once a queue's arrays have grown to the depth
// it reaches, filling and draining it again allocates nothing, through
// every view and with re-pushed tasks. Allocation counts are only
// meaningful without the race detector, so the test lives in this file.
func TestQueueFillDrainAllocs(t *testing.T) {
	tasks := make([]*task.Task, 64)
	for i := range tasks {
		tasks[i] = &task.Task{ID: uint64(i + 1), Seq: uint64(i + 1)}
		tasks[i].Key[hw.GPU] = float64(i % 5)
		tasks[i].Key[hw.CPU] = float64(4 - i%5)
	}
	score := func(t *task.Task) float64 { return -float64(t.ID % 3) }
	for _, ord := range []Ordering{FCFS, Sorted} {
		q := NewQueue(ord)
		cycle := func() {
			for _, tk := range tasks {
				q.Push(tk)
			}
			// Pop a quarter through PopRanked and push it back: re-pushes
			// leave dead entries behind in every view.
			for range len(tasks) / 4 {
				q.Push(q.PopRanked(score))
			}
			for i := 0; q.Len() > 0; i++ {
				if _, ok := q.PeekKeyFor(hw.Kinds[i%len(hw.Kinds)]); !ok {
					t.Fatalf("%v: PeekKeyFor found nothing with %d queued", ord, q.Len())
				}
				if q.PopFor(hw.Kinds[i%len(hw.Kinds)]) == nil {
					t.Fatalf("%v: PopFor returned nil with %d queued", ord, q.Len())
				}
			}
		}
		cycle() // grow the arrays to their steady-state capacity
		if a := testing.AllocsPerRun(50, cycle); a != 0 {
			t.Errorf("%v: %.1f allocations per fill/drain cycle of %d tasks, want 0", ord, a, len(tasks))
		}
	}
}
