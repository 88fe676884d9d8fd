package device_test

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/profile"
)

// driveRandom submits n seeded random IOs — writes, reads and idle gaps, so
// garbage collection, merges, evictions, promotions and idle reclamation all
// run — and returns the completion times. Injected faults are part of the
// sequence: an error is recorded as -1 and the drive goes on.
func driveRandom(t testing.TB, d device.Device, seed int64, n int) []time.Duration {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]time.Duration, n)
	var at time.Duration
	for i := range out {
		size := (rng.Int63n(64) + 1) * 512
		io := device.IO{Mode: device.Mode(rng.Intn(3) / 2), Off: rng.Int63n((d.Capacity()-size)/512) * 512, Size: size}
		if rng.Intn(4) == 0 { // a short sequential burst
			io.Off = (int64(i) * 4096) % (d.Capacity() / 2)
		}
		done, err := d.Submit(at, io)
		if err != nil {
			out[i] = -1
			continue
		}
		out[i] = done
		at = done + time.Duration(rng.Intn(4))*time.Millisecond
	}
	return out
}

// dataStack is a payload-retaining cache + PageFTL stack: chip page data,
// relocation staging and buffered line payloads all have to be carried.
func dataStack(t testing.TB) device.Cloneable {
	t.Helper()
	const logical = 4 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+24*128*1024, flash.WithDataStorage())
	if err != nil {
		t.Fatal(err)
	}
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	page, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes: logical, UnitBytes: 32 * 1024, WritePoints: 2, ReserveBlocks: 6,
		AsyncReclaim: true, ReadSteal: 0.3, GCBatch: 2, MapDirtyLimit: 4, MapUnitsPerPage: 16,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := ftl.NewWriteCache(page, ftl.CacheConfig{
		CapacityBytes: 256 * 1024, LineBytes: 4096, RegionBytes: 128 * 1024, Streams: 2, DestageOnIdle: true,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 6000)
	for i := range payload {
		payload[i] = byte(i)
	}
	for off := int64(1000); off < logical/2; off += 300_000 {
		if _, err := cache.WriteData(off, payload); err != nil {
			t.Fatal(err)
		}
	}
	dev, err := device.NewSimDevice(device.SimConfig{
		Name: "data",
		Bus:  device.BusConfig{CmdLatency: 100 * time.Microsecond, ReadBytesPerS: 100 << 20, WriteBytesPerS: 100 << 20},
	}, cache, cost)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

// TestResetFromMatchesClone is the differential test of in-place reset, with
// the fresh clone it replaces as the oracle, over every layer and wrapper: a
// shard is driven away from its master, reset from it, and must then be
// snapshot-identical to a fresh clone and complete a further 2k IOs at
// exactly the clone's times, ending snapshot-identical again (every layer's
// stats, maps, pools, queues and clocks). Resetting from a master in another
// state or of another size works the same; from another concrete type it
// reports false, and ResetOrClone falls back to cloning.
func TestResetFromMatchesClone(t *testing.T) {
	const capacity = 8 << 20
	spec := func(s string) func(testing.TB, int64) device.Cloneable {
		return func(t testing.TB, capacity int64) device.Cloneable {
			t.Helper()
			d, err := profile.BuildDevice(s, capacity)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}
	}
	cases := map[string]func(testing.TB, int64) device.Cloneable{
		"page":        func(t testing.TB, _ int64) device.Cloneable { return buildBareSim(t) },
		"block":       spec("kingston-dti"),
		"cache+page":  spec("memoright"),
		"cache+block": spec("transcend-ssd16"),
		"data":        func(t testing.TB, _ int64) device.Cloneable { return dataStack(t) },
		"stripe":      spec("stripe(2,memoright,kingston-dti,chunk=64K,qd=2)"),
		"mirror":      spec("mirror(2,mtron,samsung)"),
		"concat":      spec("concat(2,kingston-dti,memoright)"),
		"faulty":      spec("faulty(stripe(2,memoright,memoright),seed=7,readerr=0.01,writeerr=0.01,spike=2ms@0.02)"),
		"per-io": func(t testing.TB, capacity int64) device.Cloneable {
			return device.NewPerIO(spec("memoright")(t, capacity))
		},
		"mem": func(testing.TB, int64) device.Cloneable {
			return device.NewMemDevice("mem", capacity, 50*time.Microsecond, 200*time.Microsecond)
		},
	}
	// snapshot also audits: SnapshotDevice then every layer's validator.
	snapshot := func(t *testing.T, d device.Device) *device.DeviceState {
		t.Helper()
		if p, ok := d.(*device.PerIO); ok {
			d = p.Inner
		}
		if _, ok := d.(*device.MemDevice); ok {
			return nil // a handful of scalars: the completion times cover it
		}
		auditAll(t, d)
		s, err := device.SnapshotDevice(d)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	for name, build := range cases {
		t.Run(name, func(t *testing.T) {
			master := build(t, capacity)
			driveRandom(t, master, 1, 1500)
			shard := master.CloneDevice().(device.Resettable)

			// check resets the (driven-away) shard from src and compares it
			// with a fresh clone of src, before and after a further drive.
			check := func(src device.Cloneable, seed int64) {
				t.Helper()
				if !shard.ResetFrom(src) {
					t.Fatalf("%T.ResetFrom(%T) = false", shard, src)
				}
				fresh := src.CloneDevice()
				if !reflect.DeepEqual(snapshot(t, shard), snapshot(t, fresh)) {
					t.Fatal("reset device's snapshot differs from a fresh clone's")
				}
				got, want := driveRandom(t, shard, seed, 2000), driveRandom(t, fresh, seed, 2000)
				if !reflect.DeepEqual(got, want) {
					t.Fatal("reset device completes the same IOs at other times than a fresh clone")
				}
				if !reflect.DeepEqual(snapshot(t, shard), snapshot(t, fresh)) {
					t.Fatal("snapshots differ after the same 2k IOs on the reset device and the fresh clone")
				}
			}
			before := snapshot(t, master)
			driveRandom(t, shard, 2, 1500)
			check(master, 3) // the shard is now 2k IOs away again
			check(master, 4)
			if !reflect.DeepEqual(snapshot(t, master), before) {
				t.Fatal("resetting and driving shards changed the master")
			}

			other := build(t, capacity)
			driveRandom(t, other, 5, 700)
			check(other, 6)
			if name != "page" && name != "data" && name != "mem" { // fixed-size builds
				check(build(t, 2*capacity), 7)
			}

			for otherName, otherBuild := range cases {
				o := otherBuild(t, capacity)
				if reflect.TypeOf(o) == reflect.TypeOf(master) {
					continue
				}
				if shard.ResetFrom(o) {
					t.Fatalf("%s device accepted a reset from a %s device (%T from %T)", name, otherName, shard, o)
				}
				// The caller's fallback: a fresh clone of the source.
				c := device.ResetOrClone(shard, o)
				if c == device.Device(shard) || reflect.TypeOf(c) != reflect.TypeOf(o) {
					t.Fatalf("ResetOrClone(%T, %T) = %T, want a fresh clone of the source", shard, o, c)
				}
				shard = master.CloneDevice().(device.Resettable) // a failed reset leaves the receiver unusable
			}
		})
	}
}

// TestResetSteadyStateZeroAlloc pins the point of resetting: once a recycled
// shard device has been reset from its master once (buffers sized), every
// later reset of a timing-only stack allocates nothing — against one full
// device stack per shard when cloning.
func TestResetSteadyStateZeroAlloc(t *testing.T) {
	for _, key := range []string{"memoright", "kingston-dti"} {
		t.Run(key, func(t *testing.T) {
			master, err := profile.BuildDevice(key, 32<<20)
			if err != nil {
				t.Fatal(err)
			}
			driveRandom(t, master, 1, 3000)
			shard := master.CloneDevice().(device.Resettable)
			// AllocsPerRun warms up with one call and truncates the average:
			// one measured run at a time, so a single allocation shows.
			for round := int64(0); round < 3; round++ {
				if allocs := testing.AllocsPerRun(1, func() { shard.ResetFrom(master) }); allocs != 0 {
					t.Fatalf("round %d: steady-state reset allocates %.0f times, want 0", round, allocs)
				}
				// Let the shard work (new regions, logs, queue growth) before
				// the next round resets it.
				driveRandom(t, shard, 2+round, 3000)
			}
		})
	}
}

// BenchmarkResetVsClone compares the two ways a shard gets the master's
// state, on the 1 GiB memoright stack of the plan-page workload.
func BenchmarkResetVsClone(b *testing.B) {
	master, err := profile.BuildDevice("memoright", 1<<30)
	if err != nil {
		b.Fatal(err)
	}
	driveRandom(b, master, 1, 20000)
	b.Run("clone", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			_ = master.CloneDevice()
		}
	})
	b.Run("reset", func(b *testing.B) {
		shard := master.CloneDevice().(device.Resettable)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			shard.ResetFrom(master)
		}
	})
}
