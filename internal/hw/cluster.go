package hw

import (
	"fmt"

	"repro/internal/sim"
)

// NetworkConfig parameterizes the cluster interconnect (switched Ethernet)
// and the on-node message path.
type NetworkConfig struct {
	// BandwidthBps is the per-NIC bandwidth in bytes per second.
	BandwidthBps float64
	// Latency is the one-way propagation + switching latency.
	Latency sim.Time
	// LocalLatency is the cost of delivering a message between filter
	// instances on the same node (IPC / runtime hand-off); it does not
	// occupy the NIC.
	LocalLatency sim.Time
	// LocalBandwidthBps is the on-node copy bandwidth (memcpy-like).
	LocalBandwidthBps float64
}

// netDegrade is the fault-injected state of one node's NIC: an additive
// latency penalty and a multiplicative bandwidth scale.
type netDegrade struct {
	latency sim.Time
	bwScale float64
}

// Network models a switched full-bisection network: each node owns an
// egress NIC that serializes its outgoing messages; the fabric itself never
// congests (reasonable for 14 nodes on a gigabit switch).
type Network struct {
	cfg   NetworkConfig
	bytes int64
	// deg holds per-node NIC degradations; nil until the first Degrade call,
	// so the healthy hot path pays only a nil check.
	deg map[int]*netDegrade
	// free holds idle SendThen transfer records for reuse.
	free []*transfer
}

// NewNetwork creates a network model.
func NewNetwork(cfg NetworkConfig) *Network {
	if cfg.BandwidthBps <= 0 {
		panic("hw: network bandwidth must be positive")
	}
	return &Network{cfg: cfg}
}

// Config returns the network configuration.
func (n *Network) Config() NetworkConfig { return n.cfg }

// TotalBytes returns total bytes sent over the network.
func (n *Network) TotalBytes() int64 { return n.bytes }

// Degrade perturbs one node's NIC: latAdd is added to the one-way latency of
// every message the node sends or receives, and the node's egress bandwidth
// is multiplied by bwMul (> 0). Fault injectors revert a degradation by
// calling Degrade again with (-latAdd, 1/bwMul); effects compose across
// overlapping windows. On-node (local) delivery is unaffected.
func (n *Network) Degrade(node int, latAdd sim.Time, bwMul float64) {
	if bwMul <= 0 {
		panic("hw: bandwidth scale must be positive")
	}
	if n.deg == nil {
		n.deg = make(map[int]*netDegrade)
	}
	d := n.deg[node]
	if d == nil {
		d = &netDegrade{bwScale: 1}
		n.deg[node] = d
	}
	d.latency += latAdd
	d.bwScale *= bwMul
}

// segmentBytes is the granularity at which concurrent sends interleave on
// a NIC, approximating TCP packet multiplexing: a small control message
// waits at most one segment behind a bulk transfer instead of the whole
// transfer.
const segmentBytes = 64 << 10

// Send blocks the caller for the time it takes to move bytes from one node
// to another: serialization on the sender's NIC (segment-interleaved with
// concurrent sends) plus propagation latency. Local delivery (same node)
// pays the cheaper on-node IPC cost and does not occupy the NIC.
func (n *Network) Send(e *sim.Env, from, to *Node, bytes int64) {
	if from == to {
		d := n.cfg.LocalLatency
		if n.cfg.LocalBandwidthBps > 0 {
			d += sim.Time(float64(bytes) / n.cfg.LocalBandwidthBps)
		}
		e.Sleep(d)
		return
	}
	bw := n.cfg.BandwidthBps
	lat := n.cfg.Latency
	if n.deg != nil {
		if d := n.deg[from.ID]; d != nil {
			bw *= d.bwScale
			lat += d.latency
		}
		if d := n.deg[to.ID]; d != nil {
			lat += d.latency
		}
	}
	for sent := int64(0); sent < bytes; sent += segmentBytes {
		seg := bytes - sent
		if seg > segmentBytes {
			seg = segmentBytes
		}
		from.egress.Acquire(e)
		e.Sleep(sim.Time(float64(seg) / bw))
		from.egress.Release()
	}
	e.Sleep(lat)
	n.bytes += bytes
}

// SendThen is the continuation form of Send, for stackless (step) processes:
// it models the same segment-interleaved NIC serialization plus propagation
// latency — sharing the egress resource's FIFO queue with blocking senders,
// so arbitration order is one discipline across process flavours — and then
// runs next. NIC degradations are sampled once, when the send starts, exactly
// as Send does. Steps must return the directive SendThen returns.
//
// A send between nodes runs on a transfer record from the network's free
// list, whose steps are bound once when the record is made, so a send in
// steady state allocates nothing.
func (n *Network) SendThen(e *sim.Env, from, to *Node, bytes int64, next sim.Step) sim.Cont {
	if from == to {
		d := n.cfg.LocalLatency
		if n.cfg.LocalBandwidthBps > 0 {
			d += sim.Time(float64(bytes) / n.cfg.LocalBandwidthBps)
		}
		return sim.After(d, next)
	}
	tr := n.newTransfer()
	tr.from, tr.bytes, tr.sent, tr.next = from, bytes, 0, next
	tr.bw, tr.lat = n.cfg.BandwidthBps, n.cfg.Latency
	if n.deg != nil {
		if d := n.deg[from.ID]; d != nil {
			tr.bw *= d.bwScale
			tr.lat += d.latency
		}
		if d := n.deg[to.ID]; d != nil {
			tr.lat += d.latency
		}
	}
	return tr.segment(e)
}

// transfer is the state of one SendThen between nodes: the NIC it
// serializes on, its progress in segments, the bandwidth and latency
// sampled at its start, and the step to run once the bytes have arrived.
type transfer struct {
	n     *Network
	from  *Node
	bytes int64
	sent  int64 // bytes handed to the NIC so far, the current segment included
	seg   int64 // size of the segment on the wire
	bw    float64
	lat   sim.Time
	next  sim.Step
	// Bound once in newTransfer: hold, release and finish as Steps.
	holdStep, releaseStep, finishStep sim.Step
}

func (n *Network) newTransfer() *transfer {
	if k := len(n.free); k > 0 {
		tr := n.free[k-1]
		n.free = n.free[:k-1]
		return tr
	}
	tr := &transfer{n: n}
	tr.holdStep, tr.releaseStep, tr.finishStep = tr.hold, tr.release, tr.finish
	return tr
}

// segment queues the next segment on the egress NIC, or, once every byte
// is on the wire, waits out the propagation latency.
func (tr *transfer) segment(e *sim.Env) sim.Cont {
	if tr.sent >= tr.bytes {
		return sim.After(tr.lat, tr.finishStep)
	}
	tr.seg = min(tr.bytes-tr.sent, segmentBytes)
	tr.sent += tr.seg
	return tr.from.egress.AcquireThen(e, tr.holdStep)
}

// hold keeps the NIC for the segment's wire time.
func (tr *transfer) hold(*sim.Env) sim.Cont {
	return sim.After(sim.Time(float64(tr.seg)/tr.bw), tr.releaseStep)
}

// release frees the NIC for the next queued segment, ours or another send's.
func (tr *transfer) release(e *sim.Env) sim.Cont {
	tr.from.egress.Release()
	return tr.segment(e)
}

// finish accounts the bytes, returns the record to the free list and runs
// the caller's step; next is read first, so it may start another send that
// reuses this very record.
func (tr *transfer) finish(e *sim.Env) sim.Cont {
	n, next := tr.n, tr.next
	n.bytes += tr.bytes
	tr.from, tr.next = nil, nil
	n.free = append(n.free, tr)
	return next(e)
}

// NodeSpec describes one machine when building a cluster.
type NodeSpec struct {
	// CPUCores is the number of general-purpose cores.
	CPUCores int
	// HasGPU adds a GPU and a PCIe link.
	HasGPU bool
	// Link overrides the default PCIe parameters when HasGPU is set.
	Link *LinkConfig
}

// Node is one machine: a set of CPU cores, optionally a GPU with its PCIe
// link, and a NIC.
type Node struct {
	ID     int
	CPUs   []*Device
	GPU    *Device // nil when the node has no accelerator
	Link   *Link   // nil when the node has no accelerator
	egress *sim.Resource
}

// Devices returns all devices of the node in stable order (CPUs then GPU).
func (n *Node) Devices() []*Device {
	out := make([]*Device, 0, len(n.CPUs)+1)
	out = append(out, n.CPUs...)
	if n.GPU != nil {
		out = append(out, n.GPU)
	}
	return out
}

// HasGPU reports whether the node has an accelerator.
func (n *Node) HasGPU() bool { return n.GPU != nil }

// Name returns a stable identifier like "node3".
func (n *Node) Name() string { return fmt.Sprintf("node%d", n.ID) }

// Cluster ties nodes and the network to one simulation kernel.
type Cluster struct {
	K     *sim.Kernel
	Nodes []*Node
	Net   *Network
}

// NewCluster builds a cluster from specs. Pass nil netCfg for defaults.
func NewCluster(k *sim.Kernel, specs []NodeSpec, netCfg *NetworkConfig) *Cluster {
	nc := DefaultNetwork
	if netCfg != nil {
		nc = *netCfg
	}
	c := &Cluster{K: k, Net: NewNetwork(nc)}
	for i, spec := range specs {
		if spec.CPUCores < 0 {
			panic("hw: negative CPU core count")
		}
		n := &Node{ID: i, egress: sim.NewResource(k, 1)}
		for j := 0; j < spec.CPUCores; j++ {
			d := NewDevice(k, CPU, j)
			d.NodeID = i
			n.CPUs = append(n.CPUs, d)
		}
		if spec.HasGPU {
			lc := DefaultLink
			if spec.Link != nil {
				lc = *spec.Link
			}
			n.GPU = NewDevice(k, GPU, 0)
			n.GPU.NodeID = i
			n.Link = NewLink(k, lc)
		}
		c.Nodes = append(c.Nodes, n)
	}
	return c
}

// Devices returns every device of every node.
func (c *Cluster) Devices() []*Device {
	var out []*Device
	for _, n := range c.Nodes {
		out = append(out, n.Devices()...)
	}
	return out
}
