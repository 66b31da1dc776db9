// Package policy implements the task-assignment building blocks of the
// paper: FIFO and speedup-sorted task queues (the intra-filter DDFCFS and
// DDWRR policies and the sender-side Data Buffer Selection Algorithm), the
// stream-policy matrix of Table 5, and the Dynamic Queue Adaptation
// Algorithm (DQAA) that ODDS uses to size per-worker data-buffer requests.
package policy

import (
	"repro/internal/hw"
	"repro/internal/task"
)

// Ordering selects how a queue hands out tasks.
type Ordering int

const (
	// FCFS pops the oldest task regardless of the requesting device.
	FCFS Ordering = iota
	// Sorted pops, for the requesting device class, the task with the
	// highest relative-advantage key (Task.Key), breaking ties FIFO.
	Sorted
)

func (o Ordering) String() string {
	if o == FCFS {
		return "FCFS"
	}
	return "Sorted"
}

// heapItem is an entry in a per-device priority heap.
type heapItem struct {
	t   *task.Task
	key float64
}

// taskHeap is a binary max-heap on key with FIFO ties. Its sift-up and
// sift-down are container/heap's, step for step, so the array holds every
// entry exactly where container/heap would put it; moving heapItem values
// directly rather than through heap.Interface saves boxing each pushed and
// popped item into an interface value, one allocation each.
type taskHeap []heapItem

func (h taskHeap) less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key > h[j].key // max-heap on key
	}
	return h[i].t.Seq < h[j].t.Seq // FIFO tie-break
}

// up is container/heap's up.
func (h taskHeap) up(j int) {
	for {
		i := (j - 1) / 2 // parent
		if i == j || !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
}

// down is container/heap's down over the first n entries.
func (h taskHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n || j1 < 0 { // j1 < 0 after int overflow
			break
		}
		j := j1 // left child
		if j2 := j1 + 1; j2 < n && h.less(j2, j1) {
			j = j2 // right child
		}
		if !h.less(j, i) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// push is heap.Push.
func (h *taskHeap) push(it heapItem) {
	*h = append(*h, it)
	h.up(len(*h) - 1)
}

// pop is heap.Pop: move the top to the end, sift the new root down, cut
// the end off. The vacated slot is cleared so it does not keep its task
// alive.
func (h *taskHeap) pop() heapItem {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	it := s[n]
	s[n] = heapItem{}
	*h = s[:n]
	return it
}

// Queue is a multi-view task queue: one logical set of tasks that can be
// popped either FIFO or per-device-class by descending relative advantage.
// A task popped through one view disappears from all views (the paper's
// DBSA "removes the same buffer from all other sorted queues"); this is
// implemented with lazy deletion, so Push and PopFor are O(log n) amortized.
type Queue struct {
	ordering Ordering
	fifo     []*task.Task
	fifoHead int
	heaps    [hw.NumKinds]taskHeap
	gone     map[uint64]bool // task IDs already popped
	n        int
}

// NewQueue creates an empty queue with the given ordering.
func NewQueue(o Ordering) *Queue {
	return &Queue{ordering: o, gone: make(map[uint64]bool)}
}

// Ordering returns the queue's ordering mode.
func (q *Queue) Ordering() Ordering { return q.ordering }

// Len returns the number of tasks currently in the queue.
func (q *Queue) Len() int { return q.n }

// Push inserts a task. A task ID that was popped from this queue earlier
// may be pushed again (pass-through forwarding around a cycle); its old
// tombstone is cleared. Pushing a task that is *currently* in the queue is
// a caller error and corrupts lazy deletion.
func (q *Queue) Push(t *task.Task) {
	q.n++
	delete(q.gone, t.ID)
	if q.ordering == FCFS {
		q.fifo = append(q.fifo, t)
		return
	}
	for _, k := range hw.Kinds {
		q.heaps[k].push(heapItem{t: t, key: t.Key[k]})
	}
}

// PopFor removes and returns the best task for the given device class, or
// nil if the queue is empty.
func (q *Queue) PopFor(kind hw.Kind) *task.Task {
	if q.n == 0 {
		return nil
	}
	var t *task.Task
	if q.ordering == FCFS {
		t = q.popFIFO()
	} else {
		t = q.popHeap(kind)
	}
	if t != nil {
		q.n--
		q.gone[t.ID] = true
		// Bound the tombstone set: once every live structure has been
		// drained of ghosts we can forget them.
		if q.n == 0 {
			q.compact()
		}
	}
	return t
}

func (q *Queue) popFIFO() *task.Task {
	for q.fifoHead < len(q.fifo) {
		t := q.fifo[q.fifoHead]
		q.fifo[q.fifoHead] = nil
		q.fifoHead++
		// A nil slot is a task PopRanked removed from the middle of the
		// window; a tombstone is one removed through another view.
		if t != nil && !q.gone[t.ID] {
			return t
		}
	}
	return nil
}

// PopRanked removes and returns the live task maximizing score, breaking
// ties FIFO (lowest Seq), or nil if the queue is empty. It is the
// pluggable-scheduler view of the queue: an external score cannot be
// indexed by the per-kind heaps, so the selection is an O(n) scan over the
// live tasks.
func (q *Queue) PopRanked(score func(*task.Task) float64) *task.Task {
	t, idx := q.bestRanked(score)
	if t == nil {
		return nil
	}
	if idx >= 0 {
		q.fifo[idx] = nil // keep re-Push of this ID safe under lazy deletion
	}
	q.n--
	q.gone[t.ID] = true
	if q.n == 0 {
		q.compact()
	}
	return t
}

// PeekRanked returns the score of the task PopRanked would remove, and
// whether one exists, without removing it.
func (q *Queue) PeekRanked(score func(*task.Task) float64) (float64, bool) {
	t, _ := q.bestRanked(score)
	if t == nil {
		return 0, false
	}
	return score(t), true
}

// bestRanked scans the live tasks for the score maximum. The second result
// is the winner's fifo index (FCFS ordering only; -1 otherwise).
func (q *Queue) bestRanked(score func(*task.Task) float64) (*task.Task, int) {
	if q.n == 0 {
		return nil, -1
	}
	var best *task.Task
	bestIdx, bestScore := -1, 0.0
	consider := func(t *task.Task, idx int) {
		if t == nil || q.gone[t.ID] || t == best {
			return
		}
		if s := score(t); best == nil || s > bestScore ||
			(s == bestScore && t.Seq < best.Seq) {
			best, bestIdx, bestScore = t, idx, s
		}
	}
	if q.ordering == FCFS {
		for i := q.fifoHead; i < len(q.fifo); i++ {
			consider(q.fifo[i], i)
		}
		return best, bestIdx
	}
	// Every live task has exactly one live entry in each per-kind heap;
	// scanning any single heap enumerates them all (duplicated IDs from
	// re-pushes collapse through the t == best guard and lazy deletion).
	for _, it := range q.heaps[hw.Kinds[0]] {
		consider(it.t, -1)
	}
	return best, -1
}

func (q *Queue) popHeap(kind hw.Kind) *task.Task {
	h := &q.heaps[kind]
	for len(*h) > 0 {
		it := h.pop()
		if !q.gone[it.t.ID] {
			return it.t
		}
	}
	return nil
}

// PeekKeyFor returns the key of the task PopFor(kind) would return, and
// whether one exists, without removing it.
func (q *Queue) PeekKeyFor(kind hw.Kind) (float64, bool) {
	if q.n == 0 {
		return 0, false
	}
	if q.ordering == FCFS {
		for i := q.fifoHead; i < len(q.fifo); i++ {
			if t := q.fifo[i]; t != nil && !q.gone[t.ID] {
				return t.Key[kind], true
			}
		}
		return 0, false
	}
	h := &q.heaps[kind]
	for len(*h) > 0 {
		if !q.gone[(*h)[0].t.ID] {
			return (*h)[0].key, true
		}
		h.pop()
	}
	return 0, false
}

// compact clears tombstones and dead heap entries when the queue is empty.
func (q *Queue) compact() {
	q.fifo = q.fifo[:0]
	q.fifoHead = 0
	for k := range q.heaps {
		q.heaps[k] = q.heaps[k][:0]
	}
	q.gone = make(map[uint64]bool)
}
