package device_test

import (
	"errors"
	"testing"
	"time"

	"uflip/internal/device"
)

func newMember(name string) *device.Counter {
	return device.NewCountedMem(name, 1<<20, time.Millisecond, 2*time.Millisecond)
}

func mustComposite(t *testing.T, cfg device.CompositeConfig, members ...device.Device) *device.CompositeDevice {
	t.Helper()
	d, err := device.NewComposite(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCompositeCapacity(t *testing.T) {
	a := newMember("a") // 1 MiB
	b := device.NewMemDevice("b", 1<<20+4096, time.Millisecond, time.Millisecond)
	chunk := int64(64 * 1024)

	stripe := mustComposite(t, device.CompositeConfig{Layout: device.LayoutStripe, ChunkBytes: chunk}, a, b)
	if got, want := stripe.Capacity(), 2*(int64(1<<20)/chunk)*chunk; got != want {
		t.Fatalf("stripe capacity = %d, want %d", got, want)
	}
	mirror := mustComposite(t, device.CompositeConfig{Layout: device.LayoutMirror}, a, b)
	if got, want := mirror.Capacity(), int64(1<<20); got != want {
		t.Fatalf("mirror capacity = %d, want %d", got, want)
	}
	concat := mustComposite(t, device.CompositeConfig{Layout: device.LayoutConcat}, a, b)
	if got, want := concat.Capacity(), int64(2<<20)+4096; got != want {
		t.Fatalf("concat capacity = %d, want %d", got, want)
	}
}

func TestCompositeValidation(t *testing.T) {
	if _, err := device.NewComposite(device.CompositeConfig{Layout: device.LayoutStripe}, nil); err == nil {
		t.Fatal("empty member list accepted")
	}
	if _, err := device.NewComposite(device.CompositeConfig{Layout: device.LayoutStripe}, []device.Device{nil}); err == nil {
		t.Fatal("nil first member accepted")
	}
	if _, err := device.NewComposite(device.CompositeConfig{Layout: device.LayoutStripe, ChunkBytes: 1000},
		[]device.Device{newMember("a")}); err == nil {
		t.Fatal("non-sector chunk accepted")
	}
	if _, err := device.NewComposite(device.CompositeConfig{Layout: device.LayoutStripe, QueueDepth: -1},
		[]device.Device{newMember("a")}); err == nil {
		t.Fatal("negative queue depth accepted")
	}
	d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutConcat}, newMember("a"))
	if _, err := d.Submit(0, device.IO{Mode: device.Read, Off: d.Capacity(), Size: 512}); !errors.Is(err, device.ErrOutOfRange) {
		t.Fatalf("out-of-range IO gave %v", err)
	}
}

// TestStripeSplitsAcrossMembers checks that a chunk-crossing IO lands on both
// members and that each member's pieces coalesce to one contiguous member IO.
func TestStripeSplitsAcrossMembers(t *testing.T) {
	a, b := newMember("a"), newMember("b")
	chunk := int64(64 * 1024)
	d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutStripe, ChunkBytes: chunk}, a, b)

	// Four chunks: members a and b get two contiguous chunks each, so one
	// IO per member despite four chunks.
	if _, err := d.Submit(0, device.IO{Mode: device.Write, Off: 0, Size: 4 * chunk}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != 1 || device.ServedIOs(b) != 1 {
		t.Fatalf("member IOs = %d/%d, want 1/1 (coalesced)", device.ServedIOs(a), device.ServedIOs(b))
	}

	// A chunk-aligned single-chunk IO touches exactly one member.
	if _, err := d.Submit(time.Second, device.IO{Mode: device.Write, Off: chunk, Size: chunk}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != 1 || device.ServedIOs(b) != 2 {
		t.Fatalf("member IOs = %d/%d, want 1/2 (chunk 1 on member b)", device.ServedIOs(a), device.ServedIOs(b))
	}
}

// TestMirrorWritesAllReadsOne checks the RAID-1 fan-out and that reads load
// only one member.
func TestMirrorWritesAllReadsOne(t *testing.T) {
	a, b := newMember("a"), newMember("b")
	d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutMirror}, a, b)
	if _, err := d.Submit(0, device.IO{Mode: device.Write, Off: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != 1 || device.ServedIOs(b) != 1 {
		t.Fatalf("mirror write reached %d/%d members, want 1/1", device.ServedIOs(a), device.ServedIOs(b))
	}
	// Back-to-back idle reads alternate members (round-robin start).
	if _, err := d.Submit(time.Second, device.IO{Mode: device.Read, Off: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(2*time.Second, device.IO{Mode: device.Read, Off: 0, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != 2 || device.ServedIOs(b) != 2 {
		t.Fatalf("mirror reads reached %d/%d members, want 2/2 (alternating)", device.ServedIOs(a), device.ServedIOs(b))
	}
}

// TestMirrorQueueDepthScheduling pins the scheduler: when the round-robin
// candidate is busy and another member is idle, the read goes to the idle
// member.
func TestMirrorQueueDepthScheduling(t *testing.T) {
	a := device.NewCountedMem("a", 1<<20, 50*time.Millisecond, 50*time.Millisecond)
	b := device.NewCountedMem("b", 1<<20, time.Millisecond, time.Millisecond)
	d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutMirror, QueueDepth: 4}, a, b)
	// First read (cursor 0) goes to the slow member a and keeps it busy for
	// 50 ms; later reads arrive while b's 1 ms services have already
	// retired, so the scheduler must route them to b even when the
	// round-robin cursor points at a.
	for i := 0; i < 4; i++ {
		at := time.Duration(i) * 2 * time.Millisecond
		if _, err := d.Submit(at, device.IO{Mode: device.Read, Off: 0, Size: 512}); err != nil {
			t.Fatal(err)
		}
	}
	if device.ServedIOs(a) != 1 {
		t.Fatalf("slow member served %d reads, want 1 (queue-depth scheduling)", device.ServedIOs(a))
	}
	if device.ServedIOs(b) != 3 {
		t.Fatalf("idle member served %d reads, want 3", device.ServedIOs(b))
	}
}

// TestConcatSplitsAtBoundary checks member selection and boundary splitting.
func TestConcatSplitsAtBoundary(t *testing.T) {
	a, b := newMember("a"), newMember("b")
	d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutConcat}, a, b)
	// Entirely in member b.
	if _, err := d.Submit(0, device.IO{Mode: device.Write, Off: 1<<20 + 4096, Size: 4096}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != 0 || device.ServedIOs(b) != 1 {
		t.Fatalf("member IOs = %d/%d, want 0/1", device.ServedIOs(a), device.ServedIOs(b))
	}
	// Crossing the boundary splits once.
	if _, err := d.Submit(time.Second, device.IO{Mode: device.Write, Off: 1<<20 - 512, Size: 1024}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != 1 || device.ServedIOs(b) != 2 {
		t.Fatalf("member IOs = %d/%d, want 1/2 after boundary split", device.ServedIOs(a), device.ServedIOs(b))
	}
}

// TestQueueDepthBlocksDispatch pins the bounded-queue model: with queue
// depth 1 on a busy member, the dispatcher stalls and a following IO to the
// other member starts late; with a deeper queue it does not.
func TestQueueDepthBlocksDispatch(t *testing.T) {
	lat := 10 * time.Millisecond
	run := func(qd int) time.Duration {
		a := device.NewMemDevice("a", 1<<20, lat, lat)
		b := device.NewMemDevice("b", 1<<20, lat, lat)
		d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutConcat, QueueDepth: qd}, a, b)
		// Two back-to-back IOs to member a at t=0 fill a depth-1 queue...
		if _, err := d.Submit(0, device.IO{Mode: device.Write, Off: 0, Size: 512}); err != nil {
			t.Fatal(err)
		}
		if _, err := d.Submit(0, device.IO{Mode: device.Write, Off: 512, Size: 512}); err != nil {
			t.Fatal(err)
		}
		// ...so this IO to the idle member b can only dispatch once a slot
		// frees on a (queue depth 1), or immediately (deeper queue).
		done, err := d.Submit(0, device.IO{Mode: device.Write, Off: 1 << 20, Size: 512})
		if err != nil {
			t.Fatal(err)
		}
		return done
	}
	if got, want := run(4), lat; got != want {
		t.Fatalf("deep queue: idle-member IO completed at %v, want %v", got, want)
	}
	if got, want := run(1), 2*lat; got != want {
		t.Fatalf("depth-1 queue: idle-member IO completed at %v, want %v (dispatch blocked)", got, want)
	}
}

// TestCompositeCloneIndependence checks that a clone's members and queues
// evolve independently of the original.
func TestCompositeCloneIndependence(t *testing.T) {
	a, b := newMember("a"), newMember("b")
	d := mustComposite(t, device.CompositeConfig{Layout: device.LayoutStripe, ChunkBytes: 64 * 1024}, a, b)
	var at time.Duration
	for i := 0; i < 10; i++ {
		done, err := d.Submit(at, device.IO{Mode: device.Write, Off: int64(i) * 4096, Size: 4096})
		if err != nil {
			t.Fatal(err)
		}
		at = done
	}
	cl := d.CloneDevice().(*device.CompositeDevice)
	if device.ServedIOs(cl) != device.ServedIOs(d) || cl.Capacity() != d.Capacity() {
		t.Fatal("clone does not mirror original state")
	}
	// Drive only the clone; the original's members must not see the IOs.
	beforeA, beforeB := device.ServedIOs(a), device.ServedIOs(b)
	if _, err := cl.Submit(at, device.IO{Mode: device.Write, Off: 0, Size: 64 * 1024 * 3}); err != nil {
		t.Fatal(err)
	}
	if device.ServedIOs(a) != beforeA || device.ServedIOs(b) != beforeB {
		t.Fatal("clone submits leaked into the original's members")
	}
	if device.ServedIOs(cl) != device.ServedIOs(d)+1 {
		t.Fatalf("clone IOs = %d, want %d", device.ServedIOs(cl), device.ServedIOs(d)+1)
	}
}
