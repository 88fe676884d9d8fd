package profile

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/ftl"
)

// TestOddCapacitiesDestageInRange writes the last bytes of a device whose
// requested capacity is not a whole number of cache lines, then forces the
// write-back cache to destage them with random 4 KiB writes. A cache destages
// whole lines, so before BuildWithCapacity rounded the capacity down to
// ftl.LineBytes a destage of the tail reached past the FTL's logical end.
func TestOddCapacitiesDestageInRange(t *testing.T) {
	probe := func(p Profile, capacity int64) error {
		dev, err := p.BuildWithCapacity(capacity)
		if err != nil {
			return err
		}
		if want := capacity - capacity%ftl.LineBytes; dev.Capacity() != want {
			return fmt.Errorf("capacity %d, want %d", dev.Capacity(), want)
		}
		var ios []device.IO
		for _, size := range []int64{512, 2 << 10, 51_712, 128 << 10} {
			ios = append(ios, device.IO{Mode: device.Write, Off: dev.Capacity() - size, Size: size})
		}
		rng := rand.New(rand.NewSource(capacity))
		for range 20_000 {
			ios = append(ios, device.IO{Mode: device.Write, Off: rng.Int63n(dev.Capacity()/4096) * 4096, Size: 4096})
		}
		var at time.Duration
		for i, io := range ios {
			if at, err = dev.Submit(at, io); err != nil {
				return fmt.Errorf("write %d %+v: %w", i, io, err)
			}
		}
		return nil
	}
	for _, p := range All() {
		for _, capacity := range []int64{1_000_000_000, 1_000_000_512, 40_000_000, 52_430_000} {
			if err := probe(p, capacity); err != nil {
				t.Errorf("%s at %d: %v", p.Key, capacity, err)
			}
		}
	}
	if _, err := All()[0].BuildWithCapacity(ftl.LineBytes - 1); err == nil {
		t.Fatal("a capacity below one cache line was accepted")
	}
}
