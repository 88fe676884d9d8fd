package ftl

import (
	"fmt"
	"math/bits"
	"slices"
	"time"
)

// CacheConfig configures a WriteCache.
//
// The buffer is organized in regions of RegionLines lines of LineBytes, one
// region per flash block, and distinguishes two kinds of dirty regions, which
// is the mechanism behind several Table 3 behaviours at once:
//
//   - zone regions hold data written out of order (random, reverse,
//     in-place). They stay resident up to CapacityBytes — the "locality
//     area" of Table 3 — and are evicted LRU, each eviction costing the FTL
//     a read-modify-write merge when the region is incomplete.
//   - stream regions are write-combining buffers for detected sequential
//     streams (a region promotes from zone to stream when a write extends
//     it in ascending order). At most Streams of them exist; exceeding the
//     bound force-flushes the least recently used stream partially — the
//     Partitioning cliff.
//
// Fully written regions flush immediately in either kind: the FTL completes
// them with a cheap switch merge, which is why sequential and reverse
// patterns stay cheap on buffered devices.
type CacheConfig struct {
	// CapacityBytes is the buffer size — the locality area of Table 3.
	CapacityBytes int64
	// Streams bounds concurrently open stream regions (at least 1).
	Streams int
	// FlashBacked marks the buffer as a flash log zone rather than RAM:
	// admissions cost explicit per-page time (zone appends plus internal
	// bookkeeping/compaction) and dirty-line reads cost page reads
	// instead of RAM transfers.
	FlashBacked bool
	// SeqAdmitPerPage and RandAdmitPerPage are the calibrated per-page
	// admission costs of the flash-backed zone for ascending-extension
	// writes and for everything else (random, reverse, in-place). The
	// gap between the two is the zone's compaction overhead, which the
	// devices do not document — these are black-box coefficients fitted
	// to Table 3.
	SeqAdmitPerPage  time.Duration
	RandAdmitPerPage time.Duration
	// EvictBatch is how many LRU regions one capacity eviction episode
	// flushes (default 1). Batching concentrates the merge work of
	// several writes into one, producing the cheap/expensive oscillation
	// of the running phase (Figure 3).
	EvictBatch int
}

func (c CacheConfig) validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("ftl: cache CapacityBytes must be positive")
	case c.CapacityBytes < BlockBytes:
		return fmt.Errorf("ftl: cache capacity %d smaller than one region %d", c.CapacityBytes, BlockBytes)
	case c.Streams < 1:
		return fmt.Errorf("ftl: cache Streams must be >= 1")
	}
	return nil
}

// CacheRegion is one slot of the cache's slab: a buffered region, the head of
// an LRU ring, or a free slot.
type CacheRegion struct {
	ID    int64
	Dirty uint32 // bit l set: line l of the region is dirty
	// Stream marks a region on the stream ring rather than the zone ring.
	Stream bool
	// Prev/Next are the slab indexes of the slot's neighbours on its LRU
	// ring; Next doubles as the freelist link while the slot holds no region.
	Prev, Next int32
}

// fullRegion is the dirty set of a region whose every line is dirty.
const fullRegion uint32 = 1<<RegionLines - 1

// nextRun returns the first maximal run [start, end) of dirty lines in dirty
// that begins at or after line from.
func nextRun(dirty uint32, from int64) (start, end int64, ok bool) {
	set := dirty &^ (1<<from - 1)
	if set == 0 {
		return 0, 0, false
	}
	start = int64(bits.TrailingZeros32(set))
	return start, int64(bits.TrailingZeros32(^dirty &^ (1<<start - 1))), true
}

// markDirty sets lines [first, last] of the region dirty and returns how many
// of them were dirty already.
func (r *CacheRegion) markDirty(first, last int64) (hits int64) {
	mask := fullRegion >> (RegionLines - 1 - last) &^ (1<<first - 1)
	hits = int64(bits.OnesCount32(r.Dirty & mask))
	r.Dirty |= mask
	return hits
}

// The slab's first slots hold no region. Slot 0 stays unused, so that index 0
// means "none" in the region index and on the freelist; slots 1 and 2 head the
// two LRU rings, linked through the slots themselves (head.Next = MRU,
// head.Prev = LRU, a head alone links to itself): no per-element allocation on
// the write hot path, and a copy of the cache is a copy of its slab.
const (
	streamHead  = 1
	zoneHead    = 2
	firstRegion = 3
)

// WriteCacheState is everything about a WriteCache that changes as it runs,
// beside the stack it buffers, which keeps its own. It is the struct the cache
// runs on.
type WriteCacheState struct {
	Regions []CacheRegion
	Free    int32 // first free slot, linked through Next
	Streams int   // regions on the stream ring

	TotalLines int64
	Stats      CacheStats
}

func (s *WriteCacheState) copyFrom(src *WriteCacheState) {
	s.Regions = append(s.Regions[:0], src.Regions...)
	s.Free, s.Streams = src.Free, src.Streams
	s.TotalLines, s.Stats = src.TotalLines, src.Stats
}

// ring returns the head slot of the LRU ring the region's Stream flag names.
func (r *CacheRegion) ring() int32 {
	if r.Stream {
		return streamHead
	}
	return zoneHead
}

// pushFront makes region i the most recently used of the ring its Stream flag
// names; remove takes it off the ring it is on.
func (s *WriteCacheState) pushFront(i int32) {
	R := s.Regions
	head := R[i].ring()
	if R[i].Stream {
		s.Streams++
	}
	R[i].Prev, R[i].Next = head, R[head].Next
	R[R[head].Next].Prev = i
	R[head].Next = i
}

func (s *WriteCacheState) remove(i int32) {
	R := s.Regions
	if R[i].Stream {
		s.Streams--
	}
	R[R[i].Prev].Next, R[R[i].Next].Prev = R[i].Next, R[i].Prev
}

// lruVictim returns the least recently used zone region, the least recently
// used stream when there is none, 0 when the cache is empty.
func (s *WriteCacheState) lruVictim() int32 {
	if i := s.Regions[zoneHead].Prev; i != zoneHead {
		return i
	}
	if i := s.Regions[streamHead].Prev; i != streamHead {
		return i
	}
	return 0
}

// eachResident calls fn on every resident region's slot, streams first, each
// ring from its most recently used.
func (s *WriteCacheState) eachResident(fn func(i int32)) {
	for head := int32(streamHead); head <= zoneHead && len(s.Regions) > 0; head++ {
		for i := s.Regions[head].Next; i != head; i = s.Regions[i].Next {
			fn(i)
		}
	}
}

// audit states the cache's invariant: whether a WriteCache built as cfg
// could be in state s. Both rings close, no slot is on two of the rings and
// the freelist, a resident region has a dirty line, no region is resident
// twice, and the dirty-line total is the regions' sum.
func (s *WriteCacheState) audit(cfg *cacheConfig) error {
	switch {
	case len(s.Regions) < firstRegion:
		return fmt.Errorf("ftl: cache state has %d slots, fewer than the %d reserved", len(s.Regions), firstRegion)
	case s.Stats.negative():
		return fmt.Errorf("ftl: cache state has a negative counter (%+v)", s.Stats)
	}
	seen := make([]bool, len(s.Regions))
	resident := make(map[int64]int32)
	streams, total := 0, int64(0)
	for head := int32(streamHead); head <= zoneHead; head++ {
		prev := head
		for i := s.Regions[head].Next; i != head; prev, i = i, s.Regions[i].Next {
			if i < firstRegion || int(i) >= len(s.Regions) || seen[i] {
				return fmt.Errorf("ftl: cache LRU ring reaches slot %d: not a region's, or linked twice", i)
			}
			seen[i] = true
			r := &s.Regions[i]
			count := int64(bits.OnesCount32(r.Dirty))
			switch {
			case r.Prev != prev || r.Stream != (head == streamHead):
				return fmt.Errorf("ftl: cache region %d is mislinked or on the wrong LRU ring", r.ID)
			case r.ID < 0 || r.ID >= cfg.nRegions || resident[r.ID] != 0:
				return fmt.Errorf("ftl: cache region %d is out of range or resident twice", r.ID)
			case count == 0:
				return fmt.Errorf("ftl: cache region %d is resident with no dirty line", r.ID)
			}
			resident[r.ID] = i
			total += count
			if r.Stream {
				streams++
			}
		}
		if s.Regions[head].Prev != prev {
			return fmt.Errorf("ftl: cache LRU ring %d does not close at slot %d", head, prev)
		}
	}
	if total != s.TotalLines || streams != s.Streams {
		return fmt.Errorf("ftl: cache state claims %d dirty lines and %d streams, regions hold %d and %d", s.TotalLines, s.Streams, total, streams)
	}
	for i := s.Free; i != 0; i = s.Regions[i].Next {
		if i < firstRegion || int(i) >= len(s.Regions) || seen[i] {
			return fmt.Errorf("ftl: cache freelist reaches slot %d: not a region's, or linked twice", i)
		}
		seen[i] = true
	}
	return nil
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits          int64 // writes to lines already dirty
	Misses        int64 // writes dirtying new lines
	CompleteFlush int64 // immediate flushes of fully written regions
	StreamFlushes int64 // partial flushes forced by the Streams bound
	CapFlushes    int64 // evictions forced by capacity
	Promotions    int64 // zone -> stream promotions
}

// cacheConfig is what a WriteCache is built as: the profile's configuration
// plus what construction derives from it and from the stack underneath.
type cacheConfig struct {
	CacheConfig

	capLines int64
	nRegions int64 // regions the logical capacity spans
}

// negative reports whether any counter is below zero, which no run produces.
func (s CacheStats) negative() bool {
	return s.Hits|s.Misses|s.CompleteFlush|s.StreamFlushes|s.CapFlushes|s.Promotions < 0
}

// WriteCache models the controller write buffer in front of the translation
// layer (Section 2.2: the FTL "might be able to cache and destage both data
// and bookkeeping information").
type WriteCache struct {
	inner Translator
	cfg   cacheConfig
	st    WriteCacheState

	// der is neither configuration nor state; rederive rebuilds it.
	der struct {
		// index maps a region id (logical offset / BlockBytes) to the slab
		// slot holding it, 0 when the region has no dirty lines. The dense
		// index replaces a map — region ids are bounded by the device
		// capacity, and the write hot path spends most of its time looking
		// regions up.
		index []int32
		// touched is a per-call scratch buffer reused across writes so the
		// hot path does not allocate.
		touched []int32
	}
}

// NewWriteCache wraps inner with a region-coalescing write-back buffer. A
// zero (or negative) EvictBatch takes the documented default of 1 region per
// eviction episode. The cache reports its work as Ops for the device to
// price, so the cost model, taken like the FTLs take theirs, goes unused.
func NewWriteCache(inner Translator, cfg CacheConfig, _ CostModel) (*WriteCache, error) {
	if cfg.EvictBatch <= 0 {
		cfg.EvictBatch = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	c := &WriteCache{
		inner: inner,
		cfg: cacheConfig{
			CacheConfig: cfg,
			capLines:    cfg.CapacityBytes / LineBytes,
			nRegions:    (inner.Capacity() + BlockBytes - 1) / BlockBytes,
		},
	}
	c.st.Regions = []CacheRegion{{}, {Prev: streamHead, Next: streamHead}, {Prev: zoneHead, Next: zoneHead}}
	c.rederive()
	return c, nil
}

// Capacity returns the logical capacity of the underlying layer.
func (c *WriteCache) Capacity() int64 { return c.inner.Capacity() }

// newRegion returns the slot of a reset region for rid, recycled from the
// freelist when possible. Growing the slab moves it: region pointers taken
// before the call are stale after it.
func (c *WriteCache) newRegion(rid int64) int32 {
	i := c.st.Free
	if i != 0 {
		c.st.Free = c.st.Regions[i].Next
		c.st.Regions[i] = CacheRegion{ID: rid}
	} else {
		i = int32(len(c.st.Regions))
		c.st.Regions = append(c.st.Regions, CacheRegion{ID: rid})
	}
	return i
}

// Clone returns a deep copy of the cache — regions, dirty lines, both LRU
// chains in order, stats — stacked over a clone of the inner layer.
func (c *WriteCache) Clone() Translator {
	g := &WriteCache{}
	g.resetFrom(c)
	return g
}

// resetFrom makes c a deep copy of t — a WriteCache — stacked over a copy of
// its inner layer, reusing c's buffers (and, where it can be reset, c's inner
// stack); c may be a zero value.
func (c *WriteCache) resetFrom(t Translator) bool {
	src, ok := t.(*WriteCache)
	if !ok {
		return false
	}
	c.inner = ResetTranslator(c.inner, src.inner)
	c.unindex()
	c.cfg = src.cfg
	c.st.copyFrom(&src.st)
	c.rederive()
	return true
}

// unindex drops the resident regions' entries from the region index, ahead of
// a new state: only they have any, so a reset costs the buffered regions and
// not the device's capacity.
func (c *WriteCache) unindex() {
	c.st.eachResident(func(i int32) { c.der.index[c.st.Regions[i].ID] = 0 })
}

// rederive rebuilds what the cache holds beside its configuration and its
// state — the region index, which must hold no entry of an earlier state
// (unindex) — and drops the per-call scratch.
func (c *WriteCache) rederive() {
	if int64(len(c.der.index)) != c.cfg.nRegions {
		c.der.index = make([]int32, c.cfg.nRegions)
	}
	c.st.eachResident(func(i int32) { c.der.index[c.st.Regions[i].ID] = i })
	c.der.touched = c.der.touched[:0]
}

// checkDerived reports whether the region index is what rederive builds from
// the state: each resident region's slot under its id, 0 everywhere else.
func (c *WriteCache) checkDerived() error {
	want := WriteCache{cfg: c.cfg, st: c.st}
	want.rederive()
	if !slices.Equal(c.der.index, want.der.index) {
		n := 0
		c.st.eachResident(func(int32) { n++ })
		return fmt.Errorf("ftl: the cache's region index is not the slots of its %d resident regions", n)
	}
	return nil
}

// ResetTranslator returns a deep copy of src that evolves independently of
// it: dst itself, overwritten in place with its buffers reused, when dst is a
// layer of src's concrete type that supports it (the three layers of this
// package do); a fresh src.Clone() otherwise, dst nil included. After the
// call dst must not be used except through the returned value.
func ResetTranslator(dst, src Translator) Translator {
	if r, ok := dst.(interface{ resetFrom(Translator) bool }); ok && r.resetFrom(src) {
		return dst
	}
	return src.Clone()
}

// Stats returns a snapshot of the cache counters.
func (c *WriteCache) Stats() CacheStats { return c.st.Stats }

// Inner returns the wrapped translation layer.
func (c *WriteCache) Inner() Translator { return c.inner }

// flushRegion writes all dirty lines of the region in slot i through to the
// inner layer as contiguous runs and removes the region.
func (c *WriteCache) flushRegion(i int32, ops *Ops) error {
	r := &c.st.Regions[i]
	c.st.remove(i)
	c.der.index[r.ID] = 0
	c.st.TotalLines -= int64(bits.OnesCount32(r.Dirty))
	// The slot is free from here on, so that a failed flush does not leak it:
	// nothing takes a slot before this function returns.
	r.Next, c.st.Free = c.st.Free, i
	base, dirty := r.ID*BlockBytes, r.Dirty
	for from := int64(0); ; {
		runStart, endExclusive, ok := nextRun(dirty, from)
		if !ok {
			return nil
		}
		from = endExclusive
		if err := Serve(c.inner, true, base+runStart*LineBytes, (endExclusive-runStart)*LineBytes, ops); err != nil {
			return err
		}
	}
}

// admitCost charges the buffer-admission cost for bytes written, sequential
// or not.
func (c *WriteCache) admitCost(bytes int64, sequential bool, ops *Ops) {
	if !c.cfg.FlashBacked {
		ops.RAMBytes += bytes
		return
	}
	pages := max((bytes+PageBytes-1)/PageBytes, 1)
	per := c.cfg.RandAdmitPerPage
	if sequential {
		per = c.cfg.SeqAdmitPerPage
	}
	ops.Stall += time.Duration(pages) * per
}

// Write buffers the lines the write covers, applying the stream/zone policy.
func (c *WriteCache) Write(off, length int64) (Ops, error) {
	var ops Ops
	err := c.write(off, length, &ops)
	return ops, err
}

func (c *WriteCache) write(off, length int64, ops *Ops) error {
	if err := checkRange(off, length, c.inner.Capacity()); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	st := &c.st
	l1 := (off + length - 1) / LineBytes
	seq := true
	touched := c.der.touched[:0]
	for gl := off / LineBytes; gl <= l1; {
		rid := gl / RegionLines
		i := c.der.index[rid]
		if i == 0 {
			i = c.newRegion(rid)
			st.pushFront(i)
			c.der.index[rid] = i
		}
		r := &st.Regions[i]
		firstLine := gl % RegionLines
		// One past the highest dirty line, 0 when none is: lines are only
		// set until the region flushes, so an ascending write continues
		// there.
		top := int64(bits.Len32(r.Dirty))
		ascending := top > 0 && firstLine == top
		// A write opening a region at its start is charged as a
		// sequential append (the zone cannot tell yet), but promotion
		// to a stream buffer still requires a confirmed extension.
		openAtStart := top == 0 && firstLine == 0
		switch {
		case ascending && !r.Stream:
			// A write extending the region in order reveals a
			// sequential stream: promote to a write-combining buffer.
			st.remove(i)
			r.Stream = true
			st.pushFront(i)
			st.Stats.Promotions++
		case !ascending && top > 0 && r.Stream:
			// Out-of-order write to a stream buffer: demote.
			st.remove(i)
			r.Stream = false
			st.pushFront(i)
		case st.Regions[r.ring()].Next != i: // not yet its ring's most recently used
			st.remove(i)
			st.pushFront(i)
		}
		if !ascending && !openAtStart {
			seq = false
		}
		base := rid * RegionLines
		last := min(l1, base+RegionLines-1)
		n := last - gl + 1
		hits := r.markDirty(firstLine, last-base)
		st.Stats.Hits += hits
		st.Stats.Misses += n - hits
		st.TotalLines += n - hits
		gl = last + 1
		touched = append(touched, i)
	}
	c.admitCost(length, seq, ops)
	err := c.enforceBounds(touched, ops)
	c.der.touched = touched[:0]
	return err
}

// enforceBounds flushes what a write to the regions in the touched slots
// pushed over a bound: completed regions, then streams beyond the Streams
// bound, then LRU regions beyond the capacity.
func (c *WriteCache) enforceBounds(touched []int32, ops *Ops) error {
	st := &c.st
	// Fully written regions flush immediately (cheap switch merge below).
	for _, i := range touched {
		if r := &st.Regions[i]; c.der.index[r.ID] == i && r.Dirty == fullRegion {
			st.Stats.CompleteFlush++
			if err := c.flushRegion(i, ops); err != nil {
				return err
			}
		}
	}
	// Stream bound: too many concurrent sequential streams force partial
	// flushes (the Partitioning cliff).
	for st.Streams > c.cfg.Streams {
		st.Stats.StreamFlushes++
		if err := c.flushRegion(st.Regions[streamHead].Prev, ops); err != nil {
			return err
		}
	}
	// Capacity bound: evict LRU zone regions (streams as a last resort),
	// a batch at a time.
	if st.TotalLines > c.cfg.capLines {
		// EvictBatch is normalized to >= 1 by NewWriteCache.
		batch := c.cfg.EvictBatch
		for i := 0; (i < batch || st.TotalLines > c.cfg.capLines) && st.TotalLines > 0; i++ {
			victim := st.lruVictim()
			if victim == 0 {
				break
			}
			st.Stats.CapFlushes++
			if err := c.flushRegion(victim, ops); err != nil {
				return err
			}
		}
	}
	return nil
}

// Read serves buffered lines from the cache and forwards contiguous
// unbuffered spans to the inner layer.
func (c *WriteCache) Read(off, length int64) (Ops, error) {
	var ops Ops
	err := c.read(off, length, &ops)
	return ops, err
}

func (c *WriteCache) read(off, length int64, ops *Ops) error {
	if err := checkRange(off, length, c.inner.Capacity()); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	l1 := (off + length - 1) / LineBytes
	spanStart := int64(-1) // first line of the unbuffered span not yet forwarded
	// One region at a time: every dirty run inside the request ends the
	// unbuffered span before it and is served from the buffer.
	for gl := off / LineBytes; gl <= l1; {
		rid := gl / RegionLines
		base := rid * RegionLines
		last := min(l1, base+RegionLines-1)
		var dirty uint32
		if i := c.der.index[rid]; i != 0 {
			dirty = c.st.Regions[i].Dirty
		}
		for gl <= last {
			runStart, runEnd := last+1, last+1
			if s, e, ok := nextRun(dirty, gl-base); ok && base+s <= last {
				runStart, runEnd = base+s, min(base+e, last+1)
			}
			if runStart > gl && spanStart < 0 {
				spanStart = gl
			}
			if n := runEnd - runStart; n > 0 {
				if c.cfg.FlashBacked {
					ops.PageReads += int(n) * (LineBytes / PageBytes)
				} else {
					ops.RAMBytes += n * LineBytes
				}
				if spanStart >= 0 {
					if err := Serve(c.inner, false, spanStart*LineBytes, (runStart-spanStart)*LineBytes, ops); err != nil {
						return err
					}
					spanStart = -1
				}
			}
			gl = runEnd
		}
	}
	if spanStart >= 0 {
		return Serve(c.inner, false, spanStart*LineBytes, (l1+1-spanStart)*LineBytes, ops)
	}
	return nil
}

// Idle forwards idle time to the inner layer: the buffer itself destages only
// when a write pushes it over a bound.
func (c *WriteCache) Idle(d time.Duration) { c.inner.Idle(d) }
