package device

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"uflip/internal/flash"
	"uflip/internal/ftl"
)

func TestModeString(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Fatal("mode names")
	}
}

func TestMemDeviceTiming(t *testing.T) {
	d := NewMemDevice("mem", 1<<20, time.Millisecond, 2*time.Millisecond)
	done, err := d.Submit(0, IO{Mode: Read, Off: 0, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	if done != time.Millisecond {
		t.Fatalf("read done at %v", done)
	}
	// Device is busy: a write submitted earlier than availability queues.
	done, err = d.Submit(0, IO{Mode: Write, Off: 0, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	if done != 3*time.Millisecond {
		t.Fatalf("queued write done at %v, want 3ms", done)
	}
	// Idle gap: submission after availability starts immediately.
	done, err = d.Submit(10*time.Millisecond, IO{Mode: Read, Off: 0, Size: 512})
	if err != nil {
		t.Fatal(err)
	}
	if done != 11*time.Millisecond {
		t.Fatalf("idle-start read done at %v", done)
	}
	if d.IOs() != 3 {
		t.Fatalf("IOs = %d", d.IOs())
	}
}

func TestMemDevicePerByte(t *testing.T) {
	d := NewMemDevice("mem", 1<<20, 0, 0)
	d.ReadPerByte = time.Microsecond
	done, err := d.Submit(0, IO{Mode: Read, Off: 0, Size: 100})
	if err != nil {
		t.Fatal(err)
	}
	if done != 100*time.Microsecond {
		t.Fatalf("per-byte read done at %v", done)
	}
}

func TestMemDeviceRangeCheck(t *testing.T) {
	d := NewMemDevice("mem", 1024, 0, 0)
	if _, err := d.Submit(0, IO{Mode: Read, Off: 1024, Size: 1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range gave %v", err)
	}
	if _, err := d.Submit(0, IO{Mode: Read, Off: -1, Size: 1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative offset gave %v", err)
	}
}

func newSim(t *testing.T, writeBack bool, lag time.Duration) *SimDevice {
	t.Helper()
	const logical = 16 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+16*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	model := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	f, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes: logical, WritePoints: 2,
		ReserveBlocks: 4, MapDirtyLimit: 4, MapUnitsPerPage: 64,
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimDevice(SimConfig{
		Name:        "test",
		Bus:         device100MBps(),
		WriteBack:   writeBack,
		MaxFlashLag: lag,
	}, f, model)
	if err != nil {
		t.Fatal(err)
	}
	return sim
}

func device100MBps() BusConfig {
	return BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20}
}

func TestSimDeviceWriteThroughSerial(t *testing.T) {
	d := newSim(t, false, 0)
	done, err := d.Submit(0, IO{Mode: Write, Off: 0, Size: 128 * 1024})
	if err != nil {
		t.Fatal(err)
	}
	// Serial: cmd + transfer + 64 programs; must exceed transfer alone.
	transfer := time.Duration(float64(128*1024) / float64(100<<20) * float64(time.Second))
	if done <= 100*time.Microsecond+transfer {
		t.Fatalf("write-through done at %v, flash work missing", done)
	}
}

func TestSimDeviceWriteBackAcksEarly(t *testing.T) {
	wb := newSim(t, true, time.Second)
	wt := newSim(t, false, 0)
	io := IO{Mode: Write, Off: 0, Size: 128 * 1024}
	ackWB, err := wb.Submit(0, io)
	if err != nil {
		t.Fatal(err)
	}
	ackWT, err := wt.Submit(0, io)
	if err != nil {
		t.Fatal(err)
	}
	if ackWB >= ackWT {
		t.Fatalf("write-back ack %v not earlier than write-through %v", ackWB, ackWT)
	}
	if wb.st.FlashFree <= ackWB {
		t.Fatal("no background flash work after write-back ack")
	}
}

func TestSimDeviceThrottleBoundsBacklog(t *testing.T) {
	lag := 5 * time.Millisecond
	d := newSim(t, true, lag)
	var prev time.Duration
	for i := 0; i < 200; i++ {
		done, err := d.Submit(prev, IO{Mode: Write, Off: int64(i%64) * 128 * 1024, Size: 128 * 1024})
		if err != nil {
			t.Fatal(err)
		}
		prev = done
		if backlog := max(d.st.FlashFree, d.st.BusFree) - done; backlog > lag+50*time.Millisecond {
			t.Fatalf("IO %d: backlog %v exceeds lag bound", i, backlog)
		}
	}
}

func TestSimDeviceRangeAndMode(t *testing.T) {
	d := newSim(t, false, 0)
	if _, err := d.Submit(0, IO{Mode: Read, Off: d.Capacity(), Size: 512}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range gave %v", err)
	}
	if _, err := d.Submit(0, IO{Mode: Mode(9), Off: 0, Size: 512}); err == nil {
		t.Fatal("unknown mode accepted")
	}
	if d.SectorSize() != 512 {
		t.Fatal("sector size")
	}
	if d.Name() != "test" {
		t.Fatal("name")
	}
}

func TestSimDeviceDeterminism(t *testing.T) {
	run := func() []time.Duration {
		d := newSim(t, true, 10*time.Millisecond)
		var out []time.Duration
		var at time.Duration
		for i := 0; i < 50; i++ {
			done, err := d.Submit(at, IO{Mode: Write, Off: int64(i*7%64) * 32 * 1024, Size: 32 * 1024})
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, done-at)
			at = done
		}
		return out
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("IO %d differs between identical runs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestFileDeviceRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "dev.img")
	d, err := OpenFileDevice(path, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Capacity() != 1<<20 {
		t.Fatalf("capacity = %d", d.Capacity())
	}
	done, err := d.Submit(0, IO{Mode: Write, Off: 0, Size: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if done <= 0 {
		t.Fatal("non-positive completion time")
	}
	if _, err := d.Submit(done, IO{Mode: Read, Off: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(0, IO{Mode: Read, Off: 1 << 20, Size: 1}); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range gave %v", err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(0, IO{Mode: Read, Off: 0, Size: 512}); !errors.Is(err, ErrClosed) {
		t.Fatalf("submit after close gave %v", err)
	}
	if err := d.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("double close gave %v", err)
	}
}

func TestFileDeviceZeroSize(t *testing.T) {
	path := filepath.Join(t.TempDir(), "empty.img")
	if _, err := OpenFileDevice(path, 0); err == nil {
		t.Fatal("zero-size file accepted")
	}
}

func TestSimDeviceIdleGrantReachesFTL(t *testing.T) {
	const logical = 16 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+40*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	model := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	f, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes: logical, WritePoints: 2,
		ReserveBlocks: 32, AsyncReclaim: true, MapDirtyLimit: 4, MapUnitsPerPage: 64,
	}, model)
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimDevice(SimConfig{Name: "idle", Bus: device100MBps()}, f, model)
	if err != nil {
		t.Fatal(err)
	}
	// Drain the pool with overwrites.
	var at time.Duration
	for round := 0; round < 2; round++ {
		for off := int64(0); off < logical; off += 128 * 1024 {
			done, err := sim.Submit(at, IO{Mode: Write, Off: off, Size: 128 * 1024})
			if err != nil {
				t.Fatal(err)
			}
			at = done
		}
	}
	before := f.Stats().AsyncReclaims
	// A long idle gap before the next IO must be granted to the FTL.
	if _, err := sim.Submit(at+10*time.Second, IO{Mode: Read, Off: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if f.Stats().AsyncReclaims <= before {
		t.Fatal("idle gap not granted to asynchronous reclamation")
	}
}
