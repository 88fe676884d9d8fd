package profile

import (
	"math/rand"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/ftl"
)

// TestPageMappedMapFlushesAboveOneGiB pins where a page-mapped profile's
// direct-map bookkeeping starts to reach flash: one map page covers 128
// blocks (16 MiB) and 64 dirty pages stay buffered, so random writes over
// 1 GiB never flush a map page, and over 2 GiB they flush thousands.
func TestPageMappedMapFlushesAboveOneGiB(t *testing.T) {
	const (
		ioBytes = 32 << 10
		writes  = 20000
		batch   = 500
	)
	for _, p := range All() {
		if p.Kind != PageMapped {
			continue
		}
		for _, capacity := range []int64{1 << 30, 2 << 30} {
			dev, err := p.BuildWithCapacity(capacity)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(1))
			ios := make([]device.IO, batch)
			done := make([]time.Duration, batch)
			var at time.Duration
			for range writes / batch {
				for i := range ios {
					ios[i] = device.IO{Mode: device.Write, Off: rng.Int63n(capacity/ioBytes) * ioBytes, Size: ioBytes}
					done[i] = device.ChainNext
				}
				if err := dev.SubmitBatch(at, ios, done); err != nil {
					t.Fatalf("%s at %d bytes: %v", p.Key, capacity, err)
				}
				at = done[batch-1]
			}
			top := dev.Top()
			if c, ok := top.(*ftl.WriteCache); ok {
				top = c.Inner()
			}
			flushes := top.(*ftl.PageFTL).Stats().MapFlushes
			if (capacity <= 1<<30) != (flushes == 0) {
				t.Errorf("%s at %d MiB: %d map flushes, want them only above 1 GiB", p.Key, capacity>>20, flushes)
			}
		}
	}
}
