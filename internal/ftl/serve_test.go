package ftl_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/profile"
)

// opsDelta returns what after holds beyond before.
func opsDelta(after, before ftl.Ops) ftl.Ops {
	return ftl.Ops{
		PageReads:     after.PageReads - before.PageReads,
		SeqPageReads:  after.SeqPageReads - before.SeqPageReads,
		PagePrograms:  after.PagePrograms - before.PagePrograms,
		MergeReads:    after.MergeReads - before.MergeReads,
		MergePrograms: after.MergePrograms - before.MergePrograms,
		Erases:        after.Erases - before.Erases,
		MapFlushes:    after.MapFlushes - before.MapFlushes,
		SeqMapFlushes: after.SeqMapFlushes - before.SeqMapFlushes,
		RAMBytes:      after.RAMBytes - before.RAMBytes,
		Stall:         after.Stall - before.Stall,
	}
}

// hidden is a Translator of no type Serve knows, so Serve takes its fallback.
type hidden struct{ ftl.Translator }

func (h hidden) Clone() ftl.Translator { return hidden{h.Translator.Clone()} }

// TestServeMatchesTranslator is the property of the in-place path: on every
// layer, bare and under a WriteCache, on chips with and without payloads, a
// random stream of reads, writes and idle periods served through ftl.Serve
// into an accumulator already holding counts adds exactly the Ops, and fails
// with exactly the errors, that Read and Write return on a clone; afterwards
// both stacks pass Audit and snapshot to the same state. A stack hidden from
// Serve's type switch runs the same stream through the fallback.
func TestServeMatchesTranslator(t *testing.T) {
	for _, data := range []bool{false, true} {
		for _, st := range integrityStacks(data) {
			for _, hide := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/data=%v/hidden=%v", st.name, data, hide), func(t *testing.T) {
					a := st.build(t).(ftl.Translator)
					b := a.Clone()
					served := a
					if hide {
						served = hidden{a}
					}
					rng := rand.New(rand.NewSource(int64(len(st.name))))
					acc := ftl.Ops{PageReads: 5, SeqPageReads: 2, PagePrograms: 9, MergeReads: 4, MergePrograms: 3,
						Erases: 1, MapFlushes: 6, SeqMapFlushes: 2, RAMBytes: 1 << 20, Stall: time.Millisecond}
					for i := 0; i < 4000; i++ {
						write := rng.Intn(5) < 3
						off := rng.Int63n(integrityLogical/512) * 512
						length := rng.Int63n(64) * 1024
						switch rng.Intn(40) {
						case 0:
							off = integrityLogical - 512 // runs past the end
						case 1:
							off = -512
						case 2:
							off += int64(rng.Intn(512)) // unaligned
						}
						length = min(length, max(integrityLogical-off, 0)+int64(rng.Intn(2))*4096)
						before := acc
						errServe := ftl.Serve(served, write, off, length, &acc)
						var want ftl.Ops
						var errWant error
						if write {
							want, errWant = b.Write(off, length)
						} else {
							want, errWant = b.Read(off, length)
						}
						if got := opsDelta(acc, before); got != want || fmt.Sprint(errServe) != fmt.Sprint(errWant) {
							t.Fatalf("IO %d (write=%v [%d,+%d)): Serve added %+v (%v), the clone's Translator returned %+v (%v)",
								i, write, off, length, got, errServe, want, errWant)
						}
						if i%50 == 49 {
							d := time.Duration(rng.Intn(20)) * time.Millisecond
							a.Idle(d)
							b.Idle(d)
						}
					}
					snaps := make([]*device.DeviceState, 2)
					for j, tr := range []ftl.Translator{a, b} {
						if err := ftl.Audit(tr); err != nil {
							t.Fatal(err)
						}
						sim, err := device.NewSimDevice(device.SimConfig{Bus: device.BusConfig{ReadBytesPerS: 1, WriteBytesPerS: 1}}, tr, ftl.CostModel{})
						if err != nil {
							t.Fatal(err)
						}
						if snaps[j], err = device.SnapshotDevice(sim); err != nil {
							t.Fatal(err)
						}
					}
					if !reflect.DeepEqual(snaps[0], snaps[1]) {
						t.Fatal("the stack driven through Serve and its clone driven through Translator end in different states")
					}
				})
			}
		}
	}
}

// TestArrayLocateMatchesDivision holds the array's reciprocal chip lookup to
// the division it replaces, for every block of every profile's array at
// 1 GiB and at the smallest capacity a profile builds at, where the array is
// its headroom alone.
func TestArrayLocateMatchesDivision(t *testing.T) {
	for _, p := range profile.All() {
		for _, logical := range []int64{1 << 30, 1} {
			d, err := p.BuildWithCapacity(logical)
			if err != nil {
				t.Fatal(err)
			}
			if err := ftl.CheckLocate(d.Top()); err != nil {
				t.Errorf("%s at %d bytes: %v", p.Key, logical, err)
			}
		}
	}
}

// TestFTLsRejectNonPowerOfTwoGeometry: both FTLs address pages and blocks by
// shift and mask, so a page size or a pages-per-block count that is not a
// power of two is refused.
func TestFTLsRejectNonPowerOfTwoGeometry(t *testing.T) {
	for _, geo := range []flash.Geometry{
		{PageSize: 3072, PagesPerBlock: 64, Blocks: 64, Planes: 1},
		{PageSize: 2048, PagesPerBlock: 48, Blocks: 64, Planes: 1},
	} {
		chip, err := flash.NewChip(geo, flash.SLC)
		if err != nil {
			t.Fatal(err)
		}
		arr, err := ftl.NewArray([]*flash.Chip{chip})
		if err != nil {
			t.Fatal(err)
		}
		cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), geo.PageSize)
		block := int64(geo.BlockSize())
		if _, err := ftl.NewPageFTL(arr, ftl.PageConfig{
			LogicalBytes: 8 * block, WritePoints: 1, ReserveBlocks: 2,
			MapDirtyLimit: 1, MapUnitsPerPage: 1,
		}, cost); err == nil {
			t.Errorf("page FTL accepted %+v", geo)
		}
		if _, err := ftl.NewBlockFTL(arr, ftl.BlockConfig{
			LogicalBytes: 8 * block, LogBlocks: 1, MapDirtyLimit: 1, MapUnitsPerPage: 1,
		}, cost); err == nil {
			t.Errorf("block FTL accepted %+v", geo)
		}
	}
}
