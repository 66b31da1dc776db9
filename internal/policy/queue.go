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

// heapItem is an entry in a per-device priority heap. key and seq are the
// task's Key and Seq when it was pushed: a crash re-enqueue gives the task
// a new Seq while its popped entries may still sit in the heaps, and an
// entry whose order changed in place would break the heap for the live
// ones.
type heapItem struct {
	t     *task.Task
	key   float64
	seq   uint64
	stamp uint64 // the Push that made the entry (see Queue)
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
	return h[i].seq < h[j].seq // FIFO tie-break
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

// fifoItem is an entry in the FIFO view.
type fifoItem struct {
	t     *task.Task
	stamp uint64 // the Push that made the entry (see Queue)
}

// Queue is a multi-view task queue: one logical set of tasks that can be
// popped either FIFO or per-device-class by descending relative advantage.
// A task popped through one view disappears from all views (the paper's
// DBSA "removes the same buffer from all other sorted queues"); this is
// implemented with lazy deletion, so Push and PopFor are O(log n) amortized;
// Push prunes a heap whose dead entries outnumber its live ones.
//
// Liveness is by push stamp: each Push takes the next stamp, every view's
// entry for that push carries it, and the entry is live while the stamp's
// bit is set in live. A pop through any view clears the bit, which kills
// the push's entries in the other views at once. A task popped earlier and
// pushed again gets a fresh stamp, so its old entries stay dead and it sits
// in each view where the new push put it. When the queue empties, the views,
// the bitset and the stamp counter are reset and their arrays reused.
type Queue struct {
	ordering Ordering
	fifo     []fifoItem
	fifoHead int
	heaps    [hw.NumKinds]taskHeap
	live     []uint64 // bitset over stamps: bit s is set while push s is queued
	stamp    uint64   // stamps handed out since the queue last emptied
	n        int
}

// NewQueue creates an empty queue with the given ordering.
func NewQueue(o Ordering) *Queue {
	return &Queue{ordering: o}
}

// Ordering returns the queue's ordering mode.
func (q *Queue) Ordering() Ordering { return q.ordering }

// Len returns the number of tasks currently in the queue.
func (q *Queue) Len() int { return q.n }

// isLive reports whether push s is still queued.
func (q *Queue) isLive(s uint64) bool { return q.live[s>>6]&(1<<(s&63)) != 0 }

// kill marks push s popped in every view.
func (q *Queue) kill(s uint64) { q.live[s>>6] &^= 1 << (s & 63) }

// Push inserts a task. A task popped from this queue earlier may be pushed
// again (pass-through forwarding around a cycle, crash re-enqueue); it is
// ordered by its current Key and Seq, never by its earlier entries. Pushing
// a task that is *currently* in the queue is a caller error: it would be
// queued twice.
func (q *Queue) Push(t *task.Task) {
	q.n++
	s := q.stamp
	q.stamp++
	if int(s>>6) == len(q.live) {
		q.live = append(q.live, 0)
	}
	q.live[s>>6] |= 1 << (s & 63)
	if q.ordering == FCFS {
		q.fifo = append(q.fifo, fifoItem{t: t, stamp: s})
		return
	}
	for _, k := range hw.Kinds {
		q.prune(k)
		q.heaps[k].push(heapItem{t: t, key: t.Key[k], seq: t.Seq, stamp: s})
	}
}

// prune drops heap k's dead entries once they outnumber its live ones, so
// a heap the pops rarely go through (the CPU heap, when GPUs do most of
// the popping) stays within about twice the queue's length instead of
// growing, and keeping popped tasks reachable, until the queue empties.
// Push calls it before adding its own entry: every task queued before
// that push has exactly one live entry in the heap. The live entries are
// kept in array order and the heap is rebuilt as heap.Init does.
//
// Pruning does not change what the queue hands out. Among live entries
// (key, seq) is a strict total order, because Seq is unique per queued
// task, so the heap yields the same live entry first whatever dead entries
// sit around it and wherever they sit; and PopRanked and PeekRanked break
// score ties by Seq, not by array position.
func (q *Queue) prune(k hw.Kind) {
	h := q.heaps[k]
	if len(h) <= 2*(q.n-1) {
		return
	}
	n := 0
	for _, it := range h {
		if q.isLive(it.stamp) {
			h[n] = it
			n++
		}
	}
	clear(h[n:])
	h = h[:n]
	for i := n/2 - 1; i >= 0; i-- {
		h.down(i, n)
	}
	q.heaps[k] = h
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
		q.popped()
	}
	return t
}

// popped accounts for one removed task, compacting the views once none is
// left.
func (q *Queue) popped() {
	q.n--
	if q.n == 0 {
		q.compact()
	}
}

func (q *Queue) popFIFO() *task.Task {
	for q.fifoHead < len(q.fifo) {
		e := q.fifo[q.fifoHead]
		q.fifo[q.fifoHead] = fifoItem{}
		q.fifoHead++
		if q.isLive(e.stamp) {
			q.kill(e.stamp)
			return e.t
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
	t, s := q.bestRanked(score)
	if t == nil {
		return nil
	}
	q.kill(s)
	q.popped()
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

// bestRanked scans the live entries of one view for the score maximum and
// returns the winner with its stamp.
func (q *Queue) bestRanked(score func(*task.Task) float64) (*task.Task, uint64) {
	if q.n == 0 {
		return nil, 0
	}
	var best *task.Task
	var bestStamp uint64
	bestScore := 0.0
	consider := func(t *task.Task, stamp uint64) {
		if !q.isLive(stamp) {
			return
		}
		if s := score(t); best == nil || s > bestScore ||
			(s == bestScore && t.Seq < best.Seq) {
			best, bestStamp, bestScore = t, stamp, s
		}
	}
	if q.ordering == FCFS {
		for _, e := range q.fifo[q.fifoHead:] {
			consider(e.t, e.stamp)
		}
		return best, bestStamp
	}
	// Every queued task has exactly one live entry in each per-kind heap;
	// scanning any single heap enumerates them all.
	for _, it := range q.heaps[hw.Kinds[0]] {
		consider(it.t, it.stamp)
	}
	return best, bestStamp
}

func (q *Queue) popHeap(kind hw.Kind) *task.Task {
	h := &q.heaps[kind]
	for len(*h) > 0 {
		it := h.pop()
		if q.isLive(it.stamp) {
			q.kill(it.stamp)
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
		for _, e := range q.fifo[q.fifoHead:] {
			if q.isLive(e.stamp) {
				return e.t.Key[kind], true
			}
		}
		return 0, false
	}
	h := &q.heaps[kind]
	for len(*h) > 0 {
		if q.isLive((*h)[0].stamp) {
			return (*h)[0].key, true
		}
		h.pop()
	}
	return 0, false
}

// compact drops the dead entries of every view and resets the stamps when
// the queue is empty. The dropped entries are zeroed, so the backing arrays
// stop keeping popped tasks reachable; every array keeps its capacity, so
// a queue that fills and drains over and over allocates nothing once warm.
func (q *Queue) compact() {
	clear(q.fifo)
	q.fifo = q.fifo[:0]
	q.fifoHead = 0
	for k := range q.heaps {
		clear(q.heaps[k])
		q.heaps[k] = q.heaps[k][:0]
	}
	clear(q.live)
	q.live = q.live[:0]
	q.stamp = 0
}
