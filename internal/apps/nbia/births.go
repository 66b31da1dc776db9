package nbia

import (
	"unsafe"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/task"
)

// births makes the tasks of one Run. A birth allocates nothing but, now
// and then, a slab chunk: the Task record and its TileRef payload come from
// slabs, Params is one shared read-only slice per level, and the cost
// function is one package-level function per pipeline stage that reads the
// tile from the task. Task records come back through release, the
// processing filters' core.FilterSpec.Release, and are handed out again,
// so a run needs about as many records as it has buffers alive at once.
type births struct {
	cfg *Config
	// params[level] is {edge}, shared by every task of that level; the
	// runtime and the estimator only read it.
	params [][]float64
	tasks  slab[task.Task]
	// Payloads have their own slab and are never reused: a ProcRecord
	// keeps its *TileRef alive, and that pins 16 B per task rather than a
	// chunk of tasks.
	refs slab[TileRef]
	// one backs the one-element Forward/Resubmit slices handlers return;
	// the runtime reads them before the worker runs anything else.
	one [1]*task.Task
}

func newBirths(cfg *Config) *births {
	b := &births{cfg: cfg, params: make([][]float64, len(cfg.Levels))}
	for lv, edge := range cfg.Levels {
		b.params[lv] = []float64{float64(edge)}
	}
	return b
}

// slabChunkBytes bounds a slab chunk below the 32 KB from which the Go
// allocator takes its large-object path, whose zeroing showed in profiles.
const slabChunkBytes = 16 << 10

// slab hands out zeroed records of one type: records given back with put
// first, then fresh ones from chunks it allocates lazily, slabChunkBytes
// at a time. A chunk is freed by the garbage collector once none of its
// records is reachable.
type slab[T any] struct {
	free []T  // the unused tail of the current chunk
	back []*T // records given back, zeroed
}

func (s *slab[T]) next() *T {
	if n := len(s.back); n > 0 {
		r := s.back[n-1]
		s.back = s.back[:n-1]
		return r
	}
	if len(s.free) == 0 {
		var zero T
		s.free = make([]T, slabChunkBytes/unsafe.Sizeof(zero))
	}
	r := &s.free[0]
	s.free = s.free[1:]
	return r
}

// put zeroes r, which nothing may reference any more, and keeps it for
// next.
func (s *slab[T]) put(r *T) {
	var zero T
	*r = zero
	s.back = append(s.back, r)
}

// tile builds one task for tile id at a level from the slabs.
func (b *births) tile(id uint64, level int, size, outSize int64, cost task.CostFunc) *task.Task {
	ref := b.refs.next()
	*ref = TileRef{ID: id, Level: level}
	t := b.tasks.next()
	t.Params = b.params[level]
	t.Size, t.OutSize = size, outSize
	t.Payload = ref
	t.Cost = cost
	b.cfg.applyWeights(t, id, b.cfg.Levels[level], level)
	return t
}

// release takes back a task the runtime is done with. Its TileRef stays
// out of the slab: a ProcRecord may still hold it as its Payload.
func (b *births) release(t *task.Task) { b.tasks.put(t) }

// forward and resubmit wrap one task as a handler action without
// allocating a slice.
func (b *births) forward(t *task.Task) core.Action {
	b.one[0] = t
	return core.Action{Forward: b.one[:]}
}

func (b *births) resubmit(t *task.Task) core.Action {
	b.one[0] = t
	return core.Action{Resubmit: b.one[:]}
}

// tileOf returns the tile a task built by births carries and its edge.
func tileOf(t *task.Task) (*TileRef, int) {
	return t.Payload.(*TileRef), int(t.Params[0])
}

// makeColorTask builds the color-conversion stage task (unfused pipeline).
func (b *births) makeColorTask(id uint64, level int) *task.Task {
	edge := b.cfg.Levels[level]
	return b.tile(id, level, TileBytes(edge), LabBytes(edge), colorCost)
}

// makeFeatureTask builds the feature/classify stage task (unfused pipeline).
func (b *births) makeFeatureTask(id uint64, level int) *task.Task {
	edge := b.cfg.Levels[level]
	return b.tile(id, level, LabBytes(edge), featureBytes, featureCost)
}

// makeTask builds the runtime task for one tile at one level.
func (b *births) makeTask(id uint64, level int) *task.Task {
	return b.tile(id, level, TileBytes(b.cfg.Levels[level]), featureBytes, fusedCost)
}

// fusedCost, colorCost and featureCost are the cost functions of the fused
// filter and of the unfused pipeline's two stages.
func fusedCost(t *task.Task, kind hw.Kind) sim.Time {
	ref, edge := tileOf(t)
	if kind == hw.GPU {
		return GPUKernelTime(ref.ID, edge, ref.Level)
	}
	return CPUTime(ref.ID, edge, ref.Level)
}

func colorCost(t *task.Task, kind hw.Kind) sim.Time {
	ref, edge := tileOf(t)
	if kind == hw.GPU {
		return ColorGPUTime(ref.ID, edge, ref.Level)
	}
	return ColorCPUTime(ref.ID, edge, ref.Level)
}

func featureCost(t *task.Task, kind hw.Kind) sim.Time {
	ref, edge := tileOf(t)
	if kind == hw.GPU {
		return FeatureGPUTime(ref.ID, edge, ref.Level)
	}
	return FeatureCPUTime(ref.ID, edge, ref.Level)
}
