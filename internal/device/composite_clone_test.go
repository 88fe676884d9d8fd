package device_test

import (
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/profile"
)

// buildProfileComposite assembles a composite over freshly built simulated
// members of the named profiles, one device per key.
func buildProfileComposite(t testing.TB, cfg device.CompositeConfig, capacity int64, keys ...string) *device.CompositeDevice {
	t.Helper()
	members := make([]device.Device, len(keys))
	for i, key := range keys {
		p, err := profile.ByKey(key)
		if err != nil {
			t.Fatal(err)
		}
		dev, err := p.BuildWithCapacity(capacity)
		if err != nil {
			t.Fatal(err)
		}
		members[i] = dev
	}
	d, err := device.NewComposite(cfg, members)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestCompositeCloneEquivalence snapshots a two-member stripe of full
// production profiles mid workload and checks the clone completes the
// remaining IOs at exactly the original's virtual times — the same pin the
// single-device clone test applies, one layer up.
func TestCompositeCloneEquivalence(t *testing.T) {
	for _, layout := range []device.Layout{device.LayoutStripe, device.LayoutMirror, device.LayoutConcat} {
		t.Run(layout.String(), func(t *testing.T) {
			d := buildProfileComposite(t, device.CompositeConfig{
				Layout: layout, ChunkBytes: 64 * 1024, QueueDepth: 2,
			}, 16<<20, "memoright", "mtron")
			capacity := d.Capacity()
			var at time.Duration
			for i := 0; i < 400; i++ {
				done, err := d.Submit(at, cloneIO(i, capacity))
				if err != nil {
					t.Fatal(err)
				}
				at = done + time.Duration(i%5)*time.Millisecond // idle gaps feed reclamation
			}
			cl := d.CloneDevice().(*device.CompositeDevice)
			if got, want := cl.IOs(), d.IOs(); got != want {
				t.Fatalf("clone IOs = %d, want %d", got, want)
			}
			if got, want := cl.Drain(), d.Drain(); got != want {
				t.Fatalf("clone Drain = %v, want %v", got, want)
			}
			atA, atB := at, at
			for i := 400; i < 1000; i++ {
				doneA, errA := d.Submit(atA, cloneIO(i, capacity))
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
			auditAll(t, d, cl)
		})
	}
}

// TestCompositeSubmitZeroAlloc pins the steady-state composite Submit path at
// 0 allocs/op on top of the pinned allocation-free member path: the fragment
// scratch and queue rings are reused, so the array layer adds nothing. The
// budget (0 allocs/op for chunk-aligned stripe writes and mirror writes) is
// the documented steady-state Submit allocation budget of CompositeDevice.
func TestCompositeSubmitZeroAlloc(t *testing.T) {
	for _, tc := range []struct {
		name   string
		layout device.Layout
		io     device.IO
	}{
		{"stripe-write", device.LayoutStripe, device.IO{Mode: device.Write, Off: 0, Size: 64 * 1024}},
		{"mirror-write", device.LayoutMirror, device.IO{Mode: device.Write, Off: 0, Size: 32 * 1024}},
		{"mirror-read", device.LayoutMirror, device.IO{Mode: device.Read, Off: 0, Size: 32 * 1024}},
		{"concat-write", device.LayoutConcat, device.IO{Mode: device.Write, Off: 0, Size: 32 * 1024}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			members := []device.Device{buildBareSim(t), buildBareSim(t)}
			d, err := device.NewComposite(device.CompositeConfig{
				Layout: tc.layout, ChunkBytes: 32 * 1024, QueueDepth: 4,
			}, members)
			if err != nil {
				t.Fatal(err)
			}
			var at time.Duration
			submit := func() {
				done, err := d.Submit(at, tc.io)
				if err != nil {
					t.Fatal(err)
				}
				at = done
			}
			// Warm up past free-pool drain, heap growth and GC start-up of
			// the members (and to map the read target for mirror reads).
			for i := 0; i < 4096; i++ {
				done, err := d.Submit(at, device.IO{Mode: device.Write, Off: tc.io.Off, Size: tc.io.Size})
				if err != nil {
					t.Fatal(err)
				}
				at = done
			}
			allocs := testing.AllocsPerRun(1000, submit)
			if allocs != 0 {
				t.Fatalf("steady-state composite Submit allocates %.2f times per op, want 0", allocs)
			}
		})
	}
}
