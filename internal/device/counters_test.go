package device_test

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/ftl"
	"uflip/internal/profile"
)

// counterStream drives n IOs of a fixed script through d from IO first on:
// a 4 KiB read, then writes of 8, 16 and 32 KiB, at 32 KiB-aligned offsets scattered
// over the device, 1 ms apart, so idle time feeds background reclamation. An
// IO an injected fault refuses is skipped; it returns the reads and writes d
// completed.
func counterStream(t *testing.T, d device.Device, first, n int) (reads, writes int64) {
	t.Helper()
	slots := d.Capacity() / (32 << 10)
	var at time.Duration
	for i := first; i < first+n; i++ {
		io := device.IO{Mode: device.Write, Off: int64(i*7919+i/4) % slots * (32 << 10), Size: 4096 << (i % 4)}
		if i%4 == 0 {
			io.Mode = device.Read
		}
		done, err := d.Submit(at, io)
		switch {
		case errors.Is(err, device.ErrMediaRead), errors.Is(err, device.ErrMediaWrite), errors.Is(err, device.ErrDeviceGone):
			continue
		case err != nil:
			t.Fatalf("IO %d: %v", i, err)
		case io.Mode == device.Read:
			reads++
		default:
			writes++
		}
		at = max(at, done) + time.Millisecond
	}
	return reads, writes
}

// TestCountersOf drives one scripted stream through each kind of layer —
// page-mapped under a write cache, block-mapped bare, a stripe, a mirror that
// loses a member, an armed fault wrapper — and pins every counter CountersOf
// reads off the stack.
func TestCountersOf(t *testing.T) {
	for _, c := range []struct {
		spec string
		want device.Counters
	}{
		{"mtron", device.Counters{
			Stats: ftl.Stats{HostReads: 27, HostWrites: 293, HostPagesWritten: 14184, PagesRead: 624, PagesProgrammed: 18752, BlocksErased: 156, Merges: 156, SwitchMerges: 156, AsyncReclaims: 156},
			Cache: ftl.CacheStats{Hits: 5456, Misses: 8544, CompleteFlush: 179, CapFlushes: 104, Promotions: 11},
		}},
		{"kingston-dti", device.Counters{
			Stats: ftl.Stats{HostReads: 1000, HostWrites: 3000, HostPagesWritten: 28000, PagesRead: 146466, PagesProgrammed: 177784, BlocksErased: 2868, Merges: 2996, SwitchMerges: 128, MapFlushes: 725},
		}},
		{"stripe(2,kingston-dti)", device.Counters{
			Stats: ftl.Stats{HostReads: 1000, HostWrites: 3000, HostPagesWritten: 28000, PagesRead: 135048, PagesProgrammed: 172004, BlocksErased: 2736, Merges: 2992, SwitchMerges: 256, MapFlushes: 1710},
		}},
		{"mirror(mtron,faulty(mtron,failat=2000))", device.Counters{
			Stats:          ftl.Stats{HostReads: 27, HostWrites: 426, HostPagesWritten: 20896, PagesRead: 720, PagesProgrammed: 27264, BlocksErased: 156, Merges: 156, SwitchMerges: 156, AsyncReclaims: 156},
			Cache:          ftl.CacheStats{Hits: 8496, Misses: 13500, CompleteFlush: 258, CapFlushes: 156, Promotions: 20},
			Injected:       device.InjectionCounts{Gone: 1},
			DegradedWrites: 1286,
			DeadMembers:    1,
		}},
		{"faulty(kingston-dti,errop=3,errop=10,spike=1ms@0.2,stall=1ms@0.2,failat=3000,seed=7)", device.Counters{
			Stats:    ftl.Stats{HostReads: 750, HostWrites: 2248, HostPagesWritten: 20976, PagesRead: 104950, PagesProgrammed: 129756, BlocksErased: 2116, Merges: 2244, SwitchMerges: 128, MapFlushes: 543},
			Injected: device.InjectionCounts{WriteErrs: 2, Spikes: 582, Stalls: 551, Gone: 1000},
		}},
	} {
		dev, err := profile.BuildDevice(c.spec, 16<<20)
		if err != nil {
			t.Fatal(err)
		}
		counterStream(t, dev, 0, 4000)
		if got := countersOf(t, dev); got != c.want {
			t.Errorf("%s: counters\n%#v\nwant\n%#v", c.spec, got, c.want)
		}
	}
}

// TestCountersOfInterval: the counters two readings differ by are those of
// the IOs between them, and a device whose state lives in a file has none.
func TestCountersOfInterval(t *testing.T) {
	dev, err := profile.BuildDevice("faulty(kingston-dti,readerr=0.1,seed=3)", 4<<20)
	if err != nil {
		t.Fatal(err)
	}
	counterStream(t, dev, 0, 100)
	before := countersOf(t, dev)
	reads, writes := counterStream(t, dev, 100, 100)
	got := countersOf(t, dev).Sub(before)
	// IOs 100-199 of the script are 25 reads and 25 writes each of 8, 16 and
	// 32 KiB; an injected read error refuses a read before the FTL sees it.
	want := device.Counters{
		Stats:    ftl.Stats{HostReads: reads, HostWrites: 75, HostPagesWritten: 25 * (56 << 10) / ftl.PageBytes},
		Injected: device.InjectionCounts{ReadErrs: 25 - reads},
	}
	got.PagesRead, got.PagesProgrammed, got.BlocksErased, got.Merges, got.SwitchMerges, got.MapFlushes = 0, 0, 0, 0, 0, 0
	if got != want || writes != 75 || reads == 25 {
		t.Errorf("interval counters %+v after %d reads and %d writes, want host counts %+v", got, reads, writes, want)
	}

	f, err := device.OpenFileDevice(filepath.Join(t.TempDir(), "dev.img"), 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if c, ok := device.CountersOf(f); ok {
		t.Errorf("a file device has counters %+v", c)
	}
}
