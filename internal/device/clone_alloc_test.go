package device_test

import (
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/profile"
)

// buildBareSim assembles a SimDevice over a bare page-mapped FTL (no write
// cache, no async reclamation): the configuration whose steady-state IO path
// is pinned allocation-free.
func buildBareSim(t testing.TB) *device.SimDevice {
	t.Helper()
	const logical = 8 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+64*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	f, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes:    logical,
		UnitBytes:       32 * 1024,
		WritePoints:     2,
		ReserveBlocks:   8,
		GCBatch:         2,
		MapDirtyLimit:   8,
		MapUnitsPerPage: 32,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := device.NewSimDevice(device.SimConfig{
		Name: "alloc-pin",
		Bus:  device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20},
	}, f, cost)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestSubmitWriteZeroAlloc pins the steady-state write path of
// SimDevice.Submit at 0 allocs/op: generic heaps instead of container/heap
// boxing, the ring-buffered map book, and no per-IO buffers anywhere in the
// stack. Unit-aligned rewrites of a mapped unit keep garbage collection
// exercised (every write consumes a unit slot and periodically triggers a
// collection episode) without ever leaving the steady state.
func TestSubmitWriteZeroAlloc(t *testing.T) {
	dev := buildBareSim(t)
	io := device.IO{Mode: device.Write, Off: 0, Size: 32 * 1024}
	var at time.Duration
	submit := func() {
		done, err := dev.Submit(at, io)
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	// Warm up past free-pool drain, heap growth and GC start-up.
	for i := 0; i < 4096; i++ {
		submit()
	}
	allocs := testing.AllocsPerRun(1000, submit)
	if allocs != 0 {
		t.Fatalf("steady-state write Submit allocates %.2f times per op, want 0", allocs)
	}
}

// TestSubmitReadZeroAlloc pins the steady-state read path at 0 allocs/op.
func TestSubmitReadZeroAlloc(t *testing.T) {
	dev := buildBareSim(t)
	var at time.Duration
	// Map a few units first.
	for i := 0; i < 8; i++ {
		done, err := dev.Submit(at, device.IO{Mode: device.Write, Off: int64(i) * 32 * 1024, Size: 32 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	i := 0
	submit := func() {
		done, err := dev.Submit(at, device.IO{Mode: device.Read, Off: int64(i%8) * 32 * 1024, Size: 32 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		at = done
		i++
	}
	for j := 0; j < 1024; j++ {
		submit()
	}
	allocs := testing.AllocsPerRun(1000, submit)
	if allocs != 0 {
		t.Fatalf("steady-state read Submit allocates %.2f times per op, want 0", allocs)
	}
}

// TestSubmitBatchZeroAlloc pins the steady-state batch path at 0 allocs per
// 128-IO chained batch: SubmitBatch works entirely in the caller's ios/done
// slices, so the executors' fixed scratch buffers are the only storage the
// hot loop ever touches.
func TestSubmitBatchZeroAlloc(t *testing.T) {
	dev := buildBareSim(t)
	const batch = 128
	ios := make([]device.IO, batch)
	done := make([]time.Duration, batch)
	for i := range ios {
		ios[i] = device.IO{Mode: device.Write, Off: 0, Size: 32 * 1024}
	}
	var at time.Duration
	submit := func() {
		for j := range done {
			done[j] = device.ChainNext
		}
		if err := dev.SubmitBatch(at, ios, done); err != nil {
			t.Fatal(err)
		}
		at = done[batch-1]
	}
	// Warm up past free-pool drain, heap growth and GC start-up.
	for i := 0; i < 64; i++ {
		submit()
	}
	allocs := testing.AllocsPerRun(200, submit)
	if allocs != 0 {
		t.Fatalf("steady-state SubmitBatch allocates %.2f times per batch, want 0", allocs)
	}
}

// cloneIO returns IO i of the deterministic mixed sequence the device-level
// clone test replays.
func cloneIO(i int, capacity int64) device.IO {
	z := uint64(i+1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	off := int64(z%uint64(capacity/512)) * 512
	size := int64(512 + (z>>17)%16*2048)
	if off+size > capacity {
		off = capacity - size
	}
	mode := device.Write
	if i%3 == 2 {
		mode = device.Read
	}
	return device.IO{Mode: mode, Off: off, Size: size}
}

// TestSimDeviceCloneEquivalence snapshots a full production profile
// (memoright: write-back bus, write cache, page FTL, async reclamation) mid
// workload and checks the clone completes the remaining IOs at exactly the
// original's virtual times.
func TestSimDeviceCloneEquivalence(t *testing.T) {
	prof, err := profile.ByKey("memoright")
	if err != nil {
		t.Fatal(err)
	}
	dev, err := prof.BuildWithCapacity(16 << 20)
	if err != nil {
		t.Fatal(err)
	}
	capacity := dev.Capacity()
	var at time.Duration
	for i := 0; i < 500; i++ {
		done, err := dev.Submit(at, cloneIO(i, capacity))
		if err != nil {
			t.Fatal(err)
		}
		at = done + time.Duration(i%5)*time.Millisecond // idle gaps feed reclamation
	}
	cl := dev.CloneDevice().(*device.SimDevice)
	if got, want := cl.IOs(), dev.IOs(); got != want {
		t.Fatalf("clone IOs = %d, want %d", got, want)
	}
	if got, want := cl.Drain(), dev.Drain(); got != want {
		t.Fatalf("clone Drain = %v, want %v", got, want)
	}
	atA, atB := at, at
	for i := 500; i < 1200; i++ {
		doneA, errA := dev.Submit(atA, cloneIO(i, capacity))
		doneB, errB := cl.Submit(atB, cloneIO(i, capacity))
		if errA != nil || errB != nil {
			t.Fatalf("io %d: errors %v / %v", i, errA, errB)
		}
		if doneA != doneB {
			t.Fatalf("io %d: completion diverges: original %v clone %v", i, doneA, doneB)
		}
		atA = doneA + time.Duration(i%5)*time.Millisecond
		atB = doneB + time.Duration(i%5)*time.Millisecond
	}
	auditAll(t, dev, cl)
}

// auditAll fails the test unless every device passes every layer's audit.
func auditAll(t testing.TB, devs ...device.Device) {
	t.Helper()
	for _, d := range devs {
		if err := device.Audit(d); err != nil {
			t.Fatal(err)
		}
	}
}
