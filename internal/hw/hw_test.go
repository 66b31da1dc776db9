package hw

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// spawnThen spawns a process that runs op and then, once op's next runs,
// after.
func spawnThen(k *sim.Kernel, op func(e *sim.Env, next sim.Step) sim.Cont, after func(e *sim.Env)) {
	k.SpawnStep("op", func(e *sim.Env) sim.Cont {
		return op(e, func(e *sim.Env) sim.Cont {
			after(e)
			return sim.Done()
		})
	})
}

func TestDeviceRunSerializesAndAccounts(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, CPU, 0)
	var finish []sim.Time
	for i := 0; i < 3; i++ {
		spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return d.RunThen(e, 2, next) },
			func(e *sim.Env) { finish = append(finish, e.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(finish) != 3 || finish[2] != 6 {
		t.Fatalf("finish = %v", finish)
	}
	if d.Busy() != 6 {
		t.Fatalf("busy = %v, want 6", d.Busy())
	}
	iv := d.Intervals()
	if len(iv) != 3 || iv[1].Start != 2 || iv[1].End != 4 {
		t.Fatalf("intervals = %v", iv)
	}
}

func TestLinkSingleTransferTime(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, LinkConfig{BandwidthBps: 1e9, Latency: 10 * sim.Microsecond})
	var done sim.Time
	spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return l.CopyThen(e, 1e6, HostToDevice, next) },
		func(e *sim.Env) { done = e.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := 10*sim.Microsecond + 1*sim.Millisecond
	if math.Abs(float64(done-want)) > 1e-12 {
		t.Fatalf("done = %v, want %v", done, want)
	}
	if l.Traffic(HostToDevice) != 1e6 {
		t.Fatalf("traffic = %d", l.Traffic(HostToDevice))
	}
}

func TestLinkCongestionSlowsConcurrentCopies(t *testing.T) {
	run := func(nCopies int) sim.Time {
		k := sim.NewKernel(1)
		l := NewLink(k, LinkConfig{BandwidthBps: 1e9, Latency: 0, Congestion: 0.10})
		var last sim.Time
		for i := 0; i < nCopies; i++ {
			spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return l.CopyThen(e, 1e6, HostToDevice, next) },
				func(e *sim.Env) { last = max(last, e.Now()) })
		}
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return last
	}
	serialEquiv := run(1) * 4
	concurrent := run(4)
	if concurrent <= serialEquiv {
		t.Fatalf("4 concurrent copies (%v) should exceed 4x single (%v) under congestion", concurrent, serialEquiv)
	}
}

func TestNetworkSendTiming(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCluster(k, []NodeSpec{CPUOnlyNode(), CPUOnlyNode()}, &NetworkConfig{BandwidthBps: 1e8, Latency: 100 * sim.Microsecond})
	var done sim.Time
	spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return c.Net.SendThen(e, c.Nodes[0], c.Nodes[1], 1e6, next) },
		func(e *sim.Env) { done = e.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(1e6/1e8) + 100*sim.Microsecond
	if math.Abs(float64(done-want)) > 1e-12 {
		t.Fatalf("done = %v, want %v", done, want)
	}
}

func TestNetworkLocalSendPaysIPCCost(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCluster(k, []NodeSpec{PaperNode()}, nil)
	var done sim.Time = -1
	spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return c.Net.SendThen(e, c.Nodes[0], c.Nodes[0], 2e9, next) },
		func(e *sim.Env) { done = e.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := DefaultNetwork.LocalLatency + 1*sim.Second // 2e9 bytes at 2 GB/s
	if math.Abs(float64(done-want)) > 1e-9 {
		t.Fatalf("local send took %v, want %v", done, want)
	}
	if c.Net.TotalBytes() != 0 {
		t.Fatalf("local send counted as NIC traffic")
	}
}

func TestClusterShapes(t *testing.T) {
	k := sim.NewKernel(1)
	c := NewCluster(k, []NodeSpec{PaperNode(), PaperNode(), PaperNode(), CPUOnlyNode(), CPUOnlyNode()}, nil)
	gpus := 0
	for _, n := range c.Nodes {
		if n.HasGPU() {
			gpus++
			if n.Link == nil {
				t.Fatalf("GPU node %s missing link", n.Name())
			}
		}
		if len(n.CPUs) != 2 {
			t.Fatalf("node %s has %d cores", n.Name(), len(n.CPUs))
		}
	}
	if gpus != 3 {
		t.Fatalf("gpus = %d, want 3", gpus)
	}
	h := HomogeneousCluster(k, 3)
	if len(h.Devices()) != 9 {
		t.Fatalf("devices = %d, want 9", len(h.Devices()))
	}
}

func TestNICSharesEgressFairly(t *testing.T) {
	// Two concurrent bulk sends interleave segment-by-segment on the NIC:
	// both take ~2x the solo time, and the aggregate rate is the NIC rate.
	k := sim.NewKernel(1)
	c := NewCluster(k, []NodeSpec{CPUOnlyNode(), CPUOnlyNode(), CPUOnlyNode()},
		&NetworkConfig{BandwidthBps: 1e6, Latency: 0})
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		dst := c.Nodes[i+1]
		spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont {
			return c.Net.SendThen(e, c.Nodes[0], dst, 1e6, next) // 1 s serialization each
		}, func(e *sim.Env) { finish = append(finish, e.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(finish) != 2 {
		t.Fatalf("finish = %v", finish)
	}
	for _, f := range finish {
		if f < 1.9 || f > 2.01 {
			t.Fatalf("finish = %v, want both ~2s (fair share)", finish)
		}
	}
}

func TestNICSmallMessageNotBlockedByBulk(t *testing.T) {
	// A 64-byte control message issued just after a 10 MB transfer starts
	// must slip between its segments, not wait for the whole transfer.
	k := sim.NewKernel(1)
	c := NewCluster(k, []NodeSpec{CPUOnlyNode(), CPUOnlyNode()},
		&NetworkConfig{BandwidthBps: 1e8, Latency: 0})
	var small sim.Time
	k.SpawnStep("bulk", func(e *sim.Env) sim.Cont {
		return c.Net.SendThen(e, c.Nodes[0], c.Nodes[1], 10e6, sim.DoneStep) // 100 ms total
	})
	spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont {
		return sim.After(1*sim.Millisecond, func(e *sim.Env) sim.Cont {
			return c.Net.SendThen(e, c.Nodes[0], c.Nodes[1], 64, next)
		})
	}, func(e *sim.Env) { small = e.Now() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if small > 3*sim.Millisecond {
		t.Fatalf("control message delivered at %v, should interleave within ~2ms", small)
	}
}

func TestLinkTransferTimeMonotoneProperty(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, DefaultLink)
	f := func(a, b uint32) bool {
		x, y := int64(a), int64(b)
		if x > y {
			x, y = y, x
		}
		return l.TransferTime(x) <= l.TransferTime(y)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceIntervalsDisjointProperty(t *testing.T) {
	// Property: busy intervals of a device never overlap and sum to Busy().
	f := func(seed int64) bool {
		k := sim.NewKernel(seed)
		d := NewDevice(k, GPU, 0)
		for i := 0; i < 10; i++ {
			k.SpawnStep("u", func(e *sim.Env) sim.Cont {
				return sim.After(sim.Time(e.Rand().Float64()), func(e *sim.Env) sim.Cont {
					return d.RunThen(e, sim.Time(e.Rand().Float64()), sim.DoneStep)
				})
			})
		}
		if err := k.Run(); err != nil {
			return false
		}
		var sum sim.Time
		prevEnd := sim.Time(-1)
		for _, iv := range d.Intervals() {
			if iv.Start < prevEnd {
				return false
			}
			sum += iv.End - iv.Start
			prevEnd = iv.End
		}
		return math.Abs(float64(sum-d.Busy())) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceConcurrencySlots(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, GPU, 0)
	d.SetConcurrency(2, 0) // two slots, no contention penalty
	var finish []sim.Time
	for i := 0; i < 4; i++ {
		spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return d.RunThen(e, 10, next) },
			func(e *sim.Env) { finish = append(finish, e.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []sim.Time{10, 10, 20, 20}
	for i := range want {
		if finish[i] != want[i] {
			t.Fatalf("finish = %v, want %v", finish, want)
		}
	}
}

func TestDeviceConcurrencyPenalty(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, GPU, 0)
	d.SetConcurrency(2, 0.7)
	var finish []sim.Time
	for i := 0; i < 2; i++ {
		spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return d.RunThen(e, 10, next) },
			func(e *sim.Env) { finish = append(finish, e.Now()) })
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// First task starts alone (10s); the second starts while the first is
	// active, so it pays the 70% co-run penalty (17s).
	if finish[0] != 10 || finish[1] != 17 {
		t.Fatalf("finish = %v, want [10 17]", finish)
	}
}

func TestDeviceConcurrencyValidation(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, GPU, 0)
	if d.Concurrency() != 1 {
		t.Fatalf("default concurrency = %d", d.Concurrency())
	}
	for _, bad := range []func(){
		func() { d.SetConcurrency(0, 0) },
		func() { d.SetConcurrency(2, -1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			bad()
		}()
	}
}

func TestValidationAndAccessors(t *testing.T) {
	k := sim.NewKernel(1)
	for _, bad := range []func(){
		func() { NewLink(k, LinkConfig{}) },
		func() { NewNetwork(NetworkConfig{}) },
		func() { NewCluster(k, []NodeSpec{{CPUCores: -1}}, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			bad()
		}()
	}
	c := NewCluster(k, []NodeSpec{PaperNode()}, nil)
	n := c.Nodes[0]
	if n.Name() != "node0" || n.GPU.Name() != "n0/GPU0" || n.CPUs[1].Name() != "n0/CPU1" {
		t.Fatalf("names: %s %s %s", n.Name(), n.GPU.Name(), n.CPUs[1].Name())
	}
	if CPU.String() != "CPU" || GPU.String() != "GPU" || Kind(9).String() != "Kind(9)" {
		t.Fatal("kind strings")
	}
	if HostToDevice.String() != "H2D" || DeviceToHost.String() != "D2H" {
		t.Fatal("direction strings")
	}
	if n.Link.Config().BandwidthBps != DefaultLink.BandwidthBps {
		t.Fatal("link config accessor")
	}
	if c.Net.Config().Latency != DefaultNetwork.Latency {
		t.Fatal("network config accessor")
	}
	n.GPU.SetRecordIntervals(false)
	k.SpawnStep("u", func(e *sim.Env) sim.Cont { return n.GPU.RunThen(e, 1, sim.DoneStep) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(n.GPU.Intervals()) != 0 {
		t.Fatal("intervals recorded despite being disabled")
	}
	if n.GPU.Busy() != 1 {
		t.Fatal("busy accounting lost when intervals disabled")
	}
}

func TestLinkBusyAccounting(t *testing.T) {
	k := sim.NewKernel(1)
	l := NewLink(k, LinkConfig{BandwidthBps: 1e6, Latency: 0})
	k.SpawnStep("c", func(e *sim.Env) sim.Cont { return l.CopyThen(e, 5e5, DeviceToHost, sim.DoneStep) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if l.Busy() != 0.5 {
		t.Fatalf("busy = %v, want 0.5", l.Busy())
	}
	if l.Traffic(DeviceToHost) != 5e5 || l.Traffic(HostToDevice) != 0 {
		t.Fatal("traffic accounting")
	}
}

// TestDeviceRunThenZeroYields: a zero-length run still yields to the
// events due at its instant, as a zero-length wait does, before its next
// step runs.
func TestDeviceRunThenZeroYields(t *testing.T) {
	k := sim.NewKernel(1)
	d := NewDevice(k, CPU, 0)
	var order []string
	spawnThen(k, func(e *sim.Env, next sim.Step) sim.Cont { return d.RunThen(e, 0, next) },
		func(*sim.Env) { order = append(order, "run") })
	k.SpawnStep("other", func(*sim.Env) sim.Cont {
		order = append(order, "other")
		return sim.Done()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprint(order); got != "[other run]" {
		t.Fatalf("order = %v, want the other process first", got)
	}
}
