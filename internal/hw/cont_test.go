package hw_test

// Equivalence tests for the continuation forms of the hardware models:
// SendThen and CopyThen must arbitrate and account exactly like Send and
// Copy under contention, including when blocking and step processes compete
// for the same NIC or DMA engine (the wait queues are shared, so admission
// is one FIFO discipline across flavours).

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// netCompletionTimes runs n concurrent bulk sends from node 0 to node 1,
// mixing process flavours according to stepMask (bit i set = sender i is a
// step process), and returns each sender's completion time in spawn order.
func netCompletionTimes(t *testing.T, n int, sizes []int64, stepMask uint) []sim.Time {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.ContendedPair(k)
	c.Net.Degrade(1, 50*sim.Microsecond, 1) // receiver-side latency penalty on every send
	done := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		size := sizes[i%len(sizes)]
		if stepMask&(1<<uint(i)) != 0 {
			k.SpawnStep(fmt.Sprintf("s%d", i), func(e *sim.Env) sim.Cont {
				return c.Net.SendThen(e, c.Nodes[0], c.Nodes[1], size, func(e *sim.Env) sim.Cont {
					done[i] = e.Now()
					return sim.Done()
				})
			})
		} else {
			k.Spawn(fmt.Sprintf("s%d", i), func(e *sim.Env) {
				c.Net.Send(e, c.Nodes[0], c.Nodes[1], size)
				done[i] = e.Now()
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestSendThenMatchesSendUnderContention drives the segment-interleaved NIC
// with four concurrent bulk sends in every flavour mix: all blocking, all
// step, and both interleavings. Completion times and byte accounting must
// be identical.
func TestSendThenMatchesSendUnderContention(t *testing.T) {
	sizes := []int64{1 << 20, 200 << 10, 64 << 10, 3 << 20}
	ref := netCompletionTimes(t, 4, sizes, 0b0000)
	for _, mask := range []uint{0b1111, 0b0101, 0b1010} {
		got := netCompletionTimes(t, 4, sizes, mask)
		simtest.SameTimes(t, fmt.Sprintf("mask %04b", mask), got, ref)
	}
}

// linkCompletionTimes runs n concurrent copies through one DMA engine with
// congestion enabled, mixing flavours by stepMask.
func linkCompletionTimes(t *testing.T, n int, stepMask uint) (times []sim.Time, busy sim.Time, traffic int64) {
	t.Helper()
	k := sim.NewKernel(1)
	l := hw.NewLink(k, hw.LinkConfig{BandwidthBps: 1e9, Latency: 5 * sim.Microsecond, Congestion: 0.10})
	l.Degrade(2*sim.Microsecond, 0.5)
	done := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		i := i
		size := int64((i + 1) * 100_000)
		if stepMask&(1<<uint(i)) != 0 {
			k.SpawnStep(fmt.Sprintf("c%d", i), func(e *sim.Env) sim.Cont {
				return l.CopyThen(e, size, hw.HostToDevice, func(e *sim.Env) sim.Cont {
					done[i] = e.Now()
					return sim.Done()
				})
			})
		} else {
			k.Spawn(fmt.Sprintf("c%d", i), func(e *sim.Env) {
				l.Copy(e, size, hw.HostToDevice)
				done[i] = e.Now()
			})
		}
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done, l.Busy(), l.Traffic(hw.HostToDevice)
}

// TestCopyThenMatchesCopyUnderCongestion checks that the congestion model —
// sampled at service start from the in-flight count — sees the same state
// regardless of process flavour, and that busy/traffic accounting agrees.
func TestCopyThenMatchesCopyUnderCongestion(t *testing.T) {
	refTimes, refBusy, refTraffic := linkCompletionTimes(t, 4, 0b0000)
	for _, mask := range []uint{0b1111, 0b0110, 0b1001} {
		times, busy, traffic := linkCompletionTimes(t, 4, mask)
		simtest.SameTimes(t, fmt.Sprintf("mask %04b", mask), times, refTimes)
		if busy != refBusy || traffic != refTraffic {
			t.Errorf("mask %04b: busy/traffic = %v/%d, blocking reference %v/%d",
				mask, busy, traffic, refBusy, refTraffic)
		}
	}
}

// TestSendThenLocalDelivery checks the on-node fast path: same IPC cost,
// no NIC occupancy.
func TestSendThenLocalDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{hw.PaperNode()}, nil)
	var blockDone, stepDone sim.Time
	k.Spawn("b", func(e *sim.Env) {
		c.Net.Send(e, c.Nodes[0], c.Nodes[0], 1<<20)
		blockDone = e.Now()
	})
	k.SpawnStep("s", func(e *sim.Env) sim.Cont {
		return c.Net.SendThen(e, c.Nodes[0], c.Nodes[0], 1<<20, func(e *sim.Env) sim.Cont {
			stepDone = e.Now()
			return sim.Done()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if blockDone == 0 || blockDone != stepDone {
		t.Fatalf("local delivery times differ: blocking %v, step %v", blockDone, stepDone)
	}
	if c.Net.TotalBytes() != 0 {
		t.Fatalf("local sends must not count as network bytes, got %d", c.Net.TotalBytes())
	}
}

// chainedSendTimes runs two send chains from node 0 at once: chain A sends
// sizesA back to back, chain B sends sizesB back to back, starting 30 µs
// later. With step set, each chain is one step process whose SendThen
// continuation issues the chain's next SendThen straight away, so a transfer
// record goes back to the pool and is taken again at once while the other
// chain is mid-segment on the same NIC. Without it the chains are blocking
// processes calling Send. It returns every send's completion time, chain A's
// first, and the network's byte count.
func chainedSendTimes(t *testing.T, step bool, sizesA, sizesB []int64) ([]sim.Time, int64) {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.ContendedPair(k)
	c.Net.Degrade(0, 20*sim.Microsecond, 0.5)
	done := make([]sim.Time, len(sizesA)+len(sizesB))
	chain := func(name string, delay sim.Time, sizes []int64, out []sim.Time) {
		if !step {
			k.Spawn(name, func(e *sim.Env) {
				e.Sleep(delay)
				for i, size := range sizes {
					c.Net.Send(e, c.Nodes[0], c.Nodes[1], size)
					out[i] = e.Now()
				}
			})
			return
		}
		i := 0
		var next sim.Step
		send := func(e *sim.Env) sim.Cont { return c.Net.SendThen(e, c.Nodes[0], c.Nodes[1], sizes[i], next) }
		next = func(e *sim.Env) sim.Cont {
			out[i] = e.Now()
			if i++; i == len(sizes) {
				return sim.Done()
			}
			return send(e)
		}
		k.SpawnStep(name, func(e *sim.Env) sim.Cont { return sim.After(delay, send) })
	}
	chain("a", 0, sizesA, done[:len(sizesA)])
	chain("b", 30*sim.Microsecond, sizesB, done[len(sizesA):])
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done, c.Net.TotalBytes()
}

// TestSendThenChainedReuseMatchesSend: pooled transfer records reused by
// back-to-back SendThen calls — control messages, multi-segment bulk sends
// and an empty send — while another chain's bulk transfer holds segments of
// the same NIC complete at exactly the blocking Send's times and move the
// same bytes.
func TestSendThenChainedReuseMatchesSend(t *testing.T) {
	sizesA := []int64{64, 64, 200 << 10, 0, 64, 1 << 20, 64}
	sizesB := []int64{1 << 20, 64, 300 << 10, 64}
	ref, refBytes := chainedSendTimes(t, false, sizesA, sizesB)
	got, bytes := chainedSendTimes(t, true, sizesA, sizesB)
	simtest.SameTimes(t, "chained sends", got, ref)
	if bytes != refBytes {
		t.Fatalf("network bytes %d, blocking reference %d", bytes, refBytes)
	}
}
