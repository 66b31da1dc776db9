package hw

import (
	"repro/internal/sim"
)

// Direction of a PCIe transfer.
type Direction int

const (
	// HostToDevice copies input data from CPU memory to the GPU.
	HostToDevice Direction = iota
	// DeviceToHost copies results back.
	DeviceToHost
)

func (d Direction) String() string {
	if d == HostToDevice {
		return "H2D"
	}
	return "D2H"
}

// LinkConfig parameterizes a PCIe link model.
type LinkConfig struct {
	// BandwidthBps is the sustained DMA bandwidth in bytes per second.
	BandwidthBps float64
	// Latency is the fixed per-transfer setup cost (driver call, DMA
	// descriptor programming).
	Latency sim.Time
	// Congestion is the fractional slowdown of a transfer's wire time per
	// additional in-flight transfer at service start. It models the driver
	// and memory-pinning overhead that makes GPU throughput *decrease*
	// beyond the optimal number of concurrent CUDA streams (Section 5.1);
	// without it more streams would only ever help.
	Congestion float64
}

// Link models the PCIe connection between a node's CPU memory and its GPU.
//
// A single DMA engine serves transfers FIFO (as on the paper's pre-Fermi
// NVIDIA part, where concurrent copies are only effective in one direction
// at a time: the engine serializes everything, and grouping transfers per
// direction — which Algorithm 1 does — is what keeps the pipeline dense).
// The service time of a transfer grows with the number of transfers that
// are in flight when it starts, reproducing the saturation behaviour of
// Figure 7.
type Link struct {
	cfg      LinkConfig
	engine   *sim.Resource
	inflight int
	traffic  [2]int64 // bytes moved per direction
	busy     sim.Time
	degLat   sim.Time   // fault-injected per-transfer latency penalty
	degBW    float64    // fault-injected bandwidth scale (1 = healthy)
	free     []*dmaCopy // idle CopyThen records for reuse
}

// NewLink creates a PCIe link.
func NewLink(k *sim.Kernel, cfg LinkConfig) *Link {
	if cfg.BandwidthBps <= 0 {
		panic("hw: link bandwidth must be positive")
	}
	return &Link{cfg: cfg, engine: sim.NewResource(k, 1), degBW: 1}
}

// Degrade perturbs the link: latAdd is added to every transfer's setup cost
// and the DMA bandwidth is multiplied by bwMul (> 0). Fault injectors revert
// with (-latAdd, 1/bwMul); effects compose across overlapping windows.
func (l *Link) Degrade(latAdd sim.Time, bwMul float64) {
	if bwMul <= 0 {
		panic("hw: bandwidth scale must be positive")
	}
	l.degLat += latAdd
	l.degBW *= bwMul
}

// CopyThen transfers bytes in the given direction and runs next once they
// have moved. The transfer joins the DMA engine's FIFO queue and samples
// congestion at service start: every other transfer still in flight
// (queued behind it or just issued) costs management overhead. Concurrency
// comes from issuing copies from several processes (one per in-flight
// event), as the transfer controller in internal/xfer does. Steps must
// return the directive CopyThen returns. Like Network.SendThen it runs on a
// pooled record with steps bound once, so it allocates nothing in steady
// state.
func (l *Link) CopyThen(e *sim.Env, bytes int64, dir Direction, next sim.Step) sim.Cont {
	if bytes < 0 {
		panic("hw: negative transfer size")
	}
	l.inflight++
	c := l.newCopy()
	c.bytes, c.dir, c.next = bytes, dir, next
	return l.engine.AcquireThen(e, c.serveStep)
}

// dmaCopy is the state of one CopyThen.
type dmaCopy struct {
	l     *Link
	bytes int64
	dir   Direction
	start sim.Time
	next  sim.Step
	// Bound once in newCopy: serve and finish as Steps.
	serveStep, finishStep sim.Step
}

func (l *Link) newCopy() *dmaCopy {
	if k := len(l.free); k > 0 {
		c := l.free[k-1]
		l.free = l.free[:k-1]
		return c
	}
	c := &dmaCopy{l: l}
	c.serveStep, c.finishStep = c.serve, c.finish
	return c
}

// serve runs once the engine is ours: it samples congestion and holds the
// engine for the transfer's service time.
func (c *dmaCopy) serve(e *sim.Env) sim.Cont {
	l := c.l
	extra := float64(l.inflight - 1)
	wire := sim.Time(float64(c.bytes)/(l.cfg.BandwidthBps*l.degBW)) * sim.Time(1+l.cfg.Congestion*extra)
	d := l.cfg.Latency + l.degLat + wire
	c.start = e.Now()
	return sim.After(d, c.finishStep)
}

// finish releases the engine, accounts the transfer and returns the record
// to the free list before running the caller's step.
func (c *dmaCopy) finish(e *sim.Env) sim.Cont {
	l, next := c.l, c.next
	l.engine.Release()
	l.inflight--
	l.traffic[c.dir] += c.bytes
	l.busy += e.Now() - c.start
	c.next = nil
	l.free = append(l.free, c)
	return next(e)
}

// TransferTime returns the uncongested time to move bytes one way. Useful
// for cost accounting and tests.
func (l *Link) TransferTime(bytes int64) sim.Time {
	return l.cfg.Latency + sim.Time(float64(bytes)/l.cfg.BandwidthBps)
}

// Traffic returns the total bytes moved in the given direction.
func (l *Link) Traffic(dir Direction) int64 { return l.traffic[dir] }

// Busy returns the accumulated engine busy time.
func (l *Link) Busy() sim.Time { return l.busy }

// Config returns the link's configuration.
func (l *Link) Config() LinkConfig { return l.cfg }
