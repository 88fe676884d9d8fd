package main

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/ftl"
	"uflip/internal/profile"
)

// specsInUse returns every device spec a workload builds, from the
// workload table itself, so a workload that gains a device gains the test.
func specsInUse(t *testing.T) []string {
	t.Helper()
	e := &env{seed: 1, sz: smokeSizes}
	seen := map[string]bool{}
	var specs []string
	add := func(spec string) {
		if !seen[spec] {
			seen[spec] = true
			specs = append(specs, spec)
		}
	}
	for _, w := range workloads {
		for _, k := range w.kinds() {
			switch k := k.(type) {
			case *planKind:
				add(k.key)
			case *replayKind:
				add(replaySpec)
			case *serveKind:
				add(k.req(e).Device)
			default:
				t.Fatalf("workload %s: job kind %T is not covered by the equivalence test", w.name, k)
			}
		}
	}
	return specs
}

// ftlStats returns the counters of every FTL under d, through interposers,
// wrappers, arrays and caches alike.
func ftlStats(t *testing.T, d device.Device) []ftl.Stats {
	t.Helper()
	switch d := d.(type) {
	case *tracedDevice:
		return ftlStats(t, d.inner)
	case *device.FaultyDevice:
		return ftlStats(t, d.Inner())
	case *device.CompositeDevice:
		var out []ftl.Stats
		for i := range d.Members() {
			out = append(out, ftlStats(t, d.Member(i))...)
		}
		return out
	case *device.SimDevice:
		tr := d.Top()
		for {
			switch x := tr.(type) {
			case *tracedTranslator:
				tr = x.inner
			case *ftl.WriteCache:
				tr = x.Inner()
			case *ftl.PageFTL:
				return []ftl.Stats{x.Stats()}
			case *ftl.BlockFTL:
				return []ftl.Stats{x.Stats()}
			default:
				t.Fatalf("unexpected translator %T", tr)
			}
		}
	}
	t.Fatalf("unexpected device %T", d)
	return nil
}

// mixedStream is a short seeded stream of reads and writes of mixed sizes:
// focused rewrites, scattered writes and reads, with idle gaps.
func mixedStream(rng *rand.Rand, capacity int64, n int) ([]device.IO, []time.Duration) {
	ios := make([]device.IO, n)
	gaps := make([]time.Duration, n)
	for i := range ios {
		size := (rng.Int63n(64) + 1) * 512
		span := capacity
		if i%3 == 0 {
			span = 1 << 20 // focused: stays inside the write buffer
		}
		io := device.IO{Mode: device.Write, Off: rng.Int63n((span-size)/512) * 512, Size: size}
		if rng.Intn(4) == 0 {
			io.Mode = device.Read
		}
		ios[i] = io
		if rng.Intn(16) == 0 {
			gaps[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		}
	}
	return ios, gaps
}

// drive submits the stream, half of it one IO at a time and half in
// batches, and returns every completion time.
func drive(t *testing.T, d device.Device, at time.Duration, ios []device.IO, gaps []time.Duration) []time.Duration {
	t.Helper()
	out := make([]time.Duration, 0, len(ios))
	half := len(ios) / 2
	for i, io := range ios[:half] {
		end, err := d.Submit(at+gaps[i], io)
		if err != nil {
			t.Fatalf("%s: Submit %d: %v", d.Name(), i, err)
		}
		out, at = append(out, end), end
	}
	const batch = 32
	for lo := half; lo < len(ios); lo += batch {
		hi := min(lo+batch, len(ios))
		done := make([]time.Duration, hi-lo)
		for j := range done {
			done[j] = device.ChainAfter(gaps[lo+j])
		}
		if err := d.SubmitBatch(at, ios[lo:hi], done); err != nil {
			t.Fatalf("%s: SubmitBatch at %d: %v", d.Name(), lo, err)
		}
		out, at = append(out, done...), done[len(done)-1]
	}
	return out
}

// TestTracedStackMatchesProfileBuild pins the benchmark-assembled traced
// stack to profile.BuildDevice: identical completion times and FTL counters
// over a mixed stream, on clones, and on the originals after cloning. A
// profile field the assembly forgets fails here instead of skewing a trace.
func TestTracedStackMatchesProfileBuild(t *testing.T) {
	const capacity = 32 << 20
	for _, spec := range specsInUse(t) {
		t.Run(spec, func(t *testing.T) {
			plain, err := profile.BuildDevice(spec, capacity)
			if err != nil {
				t.Fatal(err)
			}
			col := &collector{}
			traced, err := buildTracedDevice(spec, capacity, col)
			if err != nil {
				t.Fatal(err)
			}
			if plain.Capacity() != traced.Capacity() || plain.Name() != traced.Name() || plain.SectorSize() != traced.SectorSize() {
				t.Fatalf("identity differs: %s/%d/%d vs %s/%d/%d", plain.Name(), plain.Capacity(), plain.SectorSize(),
					traced.Name(), traced.Capacity(), traced.SectorSize())
			}
			same := func(stage string, a, b device.Device, seed int64) {
				t.Helper()
				ios, gaps := mixedStream(rand.New(rand.NewSource(seed)), a.Capacity(), 1500)
				da, db := drive(t, a, 0, ios, gaps), drive(t, b, 0, ios, gaps)
				if !reflect.DeepEqual(da, db) {
					for i := range da {
						if da[i] != db[i] {
							t.Fatalf("%s: IO %d (%+v) done at %v on the profile build, %v on the traced stack", stage, i, ios[i], da[i], db[i])
						}
					}
				}
				if sa, sb := ftlStats(t, a), ftlStats(t, b); !reflect.DeepEqual(sa, sb) {
					t.Fatalf("%s: FTL counters differ:\n profile %+v\n traced  %+v", stage, sa, sb)
				}
			}
			same("fresh", plain, traced, 1)

			col.setRegion(regionShard)
			cp, ct := plain.CloneDevice(), traced.CloneDevice()
			same("clones", cp, ct, 2)
			// The originals did not move while the clones ran.
			same("originals after cloning", plain, traced, 3)

			// Every layer the spec has saw the clone's IOs, in the region the
			// clone was made in.
			tot := col.totals()
			shard := &tot[regionShard]
			if shard[layerDevice].ios == 0 || shard[layerInner].calls == 0 {
				t.Fatalf("clone interposers recorded nothing: %+v", shard)
			}
			if ops := shard[layerInner].ops; ops.PagePrograms+ops.MergePrograms == 0 {
				t.Errorf("inner interposer summed no flash operations: %+v", ops)
			}
			wrapped := profile.IsFaultySpec(spec)
			if wrapped != (shard[layerFaulty].calls > 0) || wrapped != (shard[layerComposite].calls > 0) {
				t.Errorf("faulty/composite interposers saw %d/%d calls for spec %s", shard[layerFaulty].calls, shard[layerComposite].calls, spec)
			}
			if outer := shard[layerFaulty]; wrapped && outer.ios != 1500 {
				t.Errorf("outermost interposer counted %d IOs, want 1500", outer.ios)
			}
		})
	}
}
