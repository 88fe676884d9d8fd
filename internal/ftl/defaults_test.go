package ftl

import (
	"math/rand"
	"testing"
)

// TestEvictBatchZeroDefaultsToOne pins the documented default of the write
// cache's EvictBatch: a CacheConfig that leaves it at its zero value behaves
// exactly like EvictBatch = 1.
func TestEvictBatchZeroDefaultsToOne(t *testing.T) {
	zero, _ := newTestCache(t, func(c *CacheConfig) { c.EvictBatch = 0 })
	if zero.cfg.EvictBatch != 1 {
		t.Fatalf("zero EvictBatch normalized to %d, want 1", zero.cfg.EvictBatch)
	}
	neg, _ := newTestCache(t, func(c *CacheConfig) { c.EvictBatch = -1 })
	if neg.cfg.EvictBatch != 1 {
		t.Fatalf("negative EvictBatch normalized to %d, want 1", neg.cfg.EvictBatch)
	}
	kept, _ := newTestCache(t, func(c *CacheConfig) { c.EvictBatch = 3 })
	if kept.cfg.EvictBatch != 3 {
		t.Fatalf("explicit EvictBatch rewritten to %d, want 3", kept.cfg.EvictBatch)
	}

	one, _ := newTestCache(t, func(c *CacheConfig) { c.EvictBatch = 1 })
	workload := func(c *WriteCache) (CacheStats, int) {
		rng := rand.New(rand.NewSource(9))
		for i := 0; i < 4000; i++ {
			off := rng.Int63n(c.Capacity()/4096) * 4096
			if _, err := c.Write(off, 4096); err != nil {
				t.Fatal(err)
			}
		}
		return c.Stats(), c.OpenRegions()
	}
	zs, zr := workload(zero)
	os, or := workload(one)
	if zs != os || zr != or {
		t.Fatalf("zero-value EvictBatch diverges from explicit 1:\n zero: %+v regions=%d\n one:  %+v regions=%d", zs, zr, os, or)
	}
}
