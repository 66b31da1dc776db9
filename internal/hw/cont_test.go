package hw_test

// Pinned-reference tests for the step forms of the hardware models:
// SendThen and CopyThen must arbitrate and account exactly as the blocking
// Send and Copy they replaced did under contention. The reference times
// below are what the blocking forms produced on the same scenarios,
// recorded (printed with %#v, so every float64 is exact) before those
// forms were deleted.

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/simtest"
)

// netCompletionTimes runs n concurrent bulk sends from node 0 to node 1
// and returns each sender's completion time in spawn order.
func netCompletionTimes(t *testing.T, n int, sizes []int64) []sim.Time {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.ContendedPair(k)
	c.Net.Degrade(1, 50*sim.Microsecond, 1) // receiver-side latency penalty on every send
	done := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		size := sizes[i%len(sizes)]
		k.SpawnStep(fmt.Sprintf("s%d", i), func(e *sim.Env) sim.Cont {
			return c.Net.SendThen(e, c.Nodes[0], c.Nodes[1], size, func(e *sim.Env) sim.Cont {
				done[i] = e.Now()
				return sim.Done()
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done
}

// TestSendThenMatchesSendUnderContention drives the segment-interleaved NIC
// with four concurrent bulk sends: completion times must be the blocking
// Send's.
func TestSendThenMatchesSendUnderContention(t *testing.T) {
	sizes := []int64{1 << 20, 200 << 10, 64 << 10, 3 << 20}
	ref := []sim.Time{0.023169520000000013, 0.007440879999999999, 0.0021160800000000002, 0.04479640000000003}
	simtest.SameTimes(t, "concurrent sends", netCompletionTimes(t, 4, sizes), ref)
}

// linkCompletionTimes runs n concurrent copies through one DMA engine with
// congestion enabled.
func linkCompletionTimes(t *testing.T, n int) (times []sim.Time, busy sim.Time, traffic int64) {
	t.Helper()
	k := sim.NewKernel(1)
	l := hw.NewLink(k, hw.LinkConfig{BandwidthBps: 1e9, Latency: 5 * sim.Microsecond, Congestion: 0.10})
	l.Degrade(2*sim.Microsecond, 0.5)
	done := make([]sim.Time, n)
	for i := 0; i < n; i++ {
		size := int64((i + 1) * 100_000)
		k.SpawnStep(fmt.Sprintf("c%d", i), func(e *sim.Env) sim.Cont {
			return l.CopyThen(e, size, hw.HostToDevice, func(e *sim.Env) sim.Cont {
				done[i] = e.Now()
				return sim.Done()
			})
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	return done, l.Busy(), l.Traffic(hw.HostToDevice)
}

// TestCopyThenMatchesCopyUnderCongestion checks that the congestion model —
// sampled at service start from the in-flight count — gives the blocking
// Copy's completion times, busy time and traffic.
func TestCopyThenMatchesCopyUnderCongestion(t *testing.T) {
	times, busy, traffic := linkCompletionTimes(t, 4)
	simtest.SameTimes(t, "concurrent copies", times, []sim.Time{0.00020700000000000002, 0.0006940000000000001, 0.001361, 0.002168})
	if busy != 0.002168 || traffic != 1000000 {
		t.Errorf("busy/traffic = %v/%d, want 0.002168/1000000", busy, traffic)
	}
}

// TestSendThenLocalDelivery checks the on-node fast path: the IPC cost, no
// NIC occupancy.
func TestSendThenLocalDelivery(t *testing.T) {
	k := sim.NewKernel(1)
	c := hw.NewCluster(k, []hw.NodeSpec{hw.PaperNode()}, nil)
	var done sim.Time
	k.SpawnStep("s", func(e *sim.Env) sim.Cont {
		return c.Net.SendThen(e, c.Nodes[0], c.Nodes[0], 1<<20, func(e *sim.Env) sim.Cont {
			done = e.Now()
			return sim.Done()
		})
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	cfg := c.Net.Config()
	if want := cfg.LocalLatency + sim.Time(float64(1<<20)/cfg.LocalBandwidthBps); done != want {
		t.Fatalf("local delivery at %v, want %v", done, want)
	}
	if c.Net.TotalBytes() != 0 {
		t.Fatalf("local sends must not count as network bytes, got %d", c.Net.TotalBytes())
	}
}

// chainedSendTimes runs two send chains from node 0 at once: chain A sends
// sizesA back to back, chain B sends sizesB back to back, starting 30 µs
// later. Each chain is one process whose SendThen continuation issues the
// chain's next SendThen straight away, so a transfer record goes back to
// the pool and is taken again at once while the other chain is mid-segment
// on the same NIC. It returns every send's completion time, chain A's
// first, and the network's byte count.
func chainedSendTimes(t *testing.T, sizesA, sizesB []int64) ([]sim.Time, int64) {
	t.Helper()
	k := sim.NewKernel(1)
	c := simtest.ContendedPair(k)
	c.Net.Degrade(0, 20*sim.Microsecond, 0.5)
	done := make([]sim.Time, len(sizesA)+len(sizesB))
	chain := func(name string, delay sim.Time, sizes []int64, out []sim.Time) {
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
	ref := []sim.Time{0.00012127999999999999, 0.0014620000000000002, 0.010800879999999999, 0.010920879999999999,
		0.012112879999999998, 0.05233688000000003, 0.05245816000000003, 0.03701656000000002, 0.03832856000000002,
		0.05102616000000003, 0.05233816000000003}
	got, bytes := chainedSendTimes(t, sizesA, sizesB)
	simtest.SameTimes(t, "chained sends", got, ref)
	if bytes != 2609536 {
		t.Fatalf("network bytes %d, want 2609536", bytes)
	}
}
