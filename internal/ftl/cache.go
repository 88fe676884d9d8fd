package ftl

import (
	"fmt"
	"math/bits"
	"time"
)

// CacheConfig configures a WriteCache.
//
// The buffer is organized in regions (one region per underlying mapping /
// flash block) and distinguishes two kinds of dirty regions, which is the
// mechanism behind several Table 3 behaviours at once:
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
	// LineBytes is the dirty-tracking granularity (e.g. 4096).
	LineBytes int
	// RegionBytes is the coalescing granularity, normally the FTL mapping
	// block size.
	RegionBytes int
	// Streams bounds concurrently open stream regions (0 = unlimited).
	Streams int
	// FlashBacked marks the buffer as a flash log zone rather than RAM:
	// admissions cost explicit per-page time (zone appends plus internal
	// bookkeeping/compaction) and dirty-line reads cost page reads
	// instead of RAM transfers.
	FlashBacked bool
	// PageBytes is the flash page size, used to price flash-backed
	// admissions and zone reads.
	PageBytes int
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
	// DestageOnIdle lets idle time drain dirty regions in LRU order.
	DestageOnIdle bool
}

func (c CacheConfig) validate() error {
	switch {
	case c.CapacityBytes <= 0:
		return fmt.Errorf("ftl: cache CapacityBytes must be positive")
	case c.LineBytes <= 0:
		return fmt.Errorf("ftl: cache LineBytes must be positive")
	case c.RegionBytes < c.LineBytes || c.RegionBytes%c.LineBytes != 0:
		return fmt.Errorf("ftl: RegionBytes %d must be a multiple of LineBytes %d", c.RegionBytes, c.LineBytes)
	case c.CapacityBytes < int64(c.RegionBytes):
		return fmt.Errorf("ftl: cache capacity %d smaller than one region %d", c.CapacityBytes, c.RegionBytes)
	case c.FlashBacked && c.PageBytes <= 0:
		return fmt.Errorf("ftl: flash-backed cache needs PageBytes")
	}
	return nil
}

type cacheRegion struct {
	id      int64
	lines   []uint64 // dirty-line bitset, bit l = line l within the region
	nlines  int64    // population count of lines
	maxLine int64    // highest dirty line so far
	stream  bool
	// prev/next are the intrusive links of the LRU chain the region is on
	// (streamLRU or zoneLRU); next doubles as the freelist link when the
	// region is not resident.
	prev, next *cacheRegion
}

func (r *cacheRegion) dirty(line int64) bool {
	return r.lines[line>>6]&(1<<(uint(line)&63)) != 0
}

// nextRun returns the first maximal run [start, end) of dirty lines that
// begins at or after from, a word of the bitset at a time. Bits at and above
// the region's line count are never set, so a run ends there at the latest.
func (r *cacheRegion) nextRun(from int64) (start, end int64, ok bool) {
	w := int(from >> 6)
	if w >= len(r.lines) {
		return 0, 0, false
	}
	set := r.lines[w] &^ (1<<(uint(from)&63) - 1)
	for set == 0 {
		if w++; w == len(r.lines) {
			return 0, 0, false
		}
		set = r.lines[w]
	}
	start = int64(w)<<6 + int64(bits.TrailingZeros64(set))
	unset := ^r.lines[w] &^ (1<<(uint(start)&63) - 1)
	for unset == 0 {
		if w++; w == len(r.lines) {
			return start, int64(w) << 6, true
		}
		unset = ^r.lines[w]
	}
	return start, int64(w)<<6 + int64(bits.TrailingZeros64(unset)), true
}

// markDirty sets lines [first, last] dirty, a masked word at a time, and
// returns how many of them were dirty already.
func (r *cacheRegion) markDirty(first, last int64) (hits int64) {
	for w := first >> 6; w <= last>>6; w++ {
		mask := ^uint64(0)
		if w == first>>6 {
			mask &^= 1<<(uint(first)&63) - 1
		}
		if w == last>>6 {
			mask &= 1<<(uint(last)&63+1) - 1
		}
		hits += int64(bits.OnesCount64(r.lines[w] & mask))
		r.lines[w] |= mask
	}
	r.nlines += last - first + 1 - hits
	if last > r.maxLine {
		r.maxLine = last
	}
	return hits
}

// regionList is an intrusive doubly-linked LRU chain (front = MRU). Using the
// regions' own links instead of container/list keeps the write hot path free
// of per-element allocations.
type regionList struct {
	front, back *cacheRegion
	n           int
}

// Len returns the number of regions on the chain.
func (l *regionList) Len() int { return l.n }

func (l *regionList) pushFront(r *cacheRegion) {
	r.prev, r.next = nil, l.front
	if l.front != nil {
		l.front.prev = r
	} else {
		l.back = r
	}
	l.front = r
	l.n++
}

func (l *regionList) pushBack(r *cacheRegion) {
	r.prev, r.next = l.back, nil
	if l.back != nil {
		l.back.next = r
	} else {
		l.front = r
	}
	l.back = r
	l.n++
}

func (l *regionList) remove(r *cacheRegion) {
	if r.prev != nil {
		r.prev.next = r.next
	} else {
		l.front = r.next
	}
	if r.next != nil {
		r.next.prev = r.prev
	} else {
		l.back = r.prev
	}
	r.prev, r.next = nil, nil
	l.n--
}

func (l *regionList) moveToFront(r *cacheRegion) {
	if l.front == r {
		return
	}
	l.remove(r)
	l.pushFront(r)
}

// CacheStats counts cache activity.
type CacheStats struct {
	Hits          int64 // writes to lines already dirty
	Misses        int64 // writes dirtying new lines
	CompleteFlush int64 // immediate flushes of fully written regions
	StreamFlushes int64 // partial flushes forced by the Streams bound
	CapFlushes    int64 // evictions forced by capacity
	IdleDestages  int64 // flushes performed during idle time
	Promotions    int64 // zone -> stream promotions
}

// WriteCache models the controller write buffer in front of the translation
// layer (Section 2.2: the FTL "might be able to cache and destage both data
// and bookkeeping information").
type WriteCache struct {
	inner Translator
	model CostModel   //uflint:shared — immutable cost tables
	cfg   CacheConfig //uflint:shared — immutable config from the profile

	linesPerRegion int64 //uflint:shared — derived from the config
	lineWords      int   //uflint:shared — bitset words per region, derived from the config
	capLines       int64 //uflint:shared — derived from the config
	totalLines     int64
	// regions is indexed by region id (logical offset / RegionBytes); nil
	// means the region holds no dirty lines. The dense index replaces a
	// map — region ids are bounded by the device capacity, and the write
	// hot path spends most of its time looking regions up.
	regions   []*cacheRegion //uflint:scratch — Snapshot walks the LRU chains; Restore rebuilds the dense index from them
	streamLRU regionList
	zoneLRU   regionList
	// freeRegions recycles region structs (linked through next) so the
	// steady state of flush-then-redirty does not allocate.
	freeRegions *cacheRegion //uflint:scratch — allocation recycler, not state

	stats      CacheStats
	idleCredit time.Duration

	// touched is a per-call scratch buffer reused across writes so the hot
	// path does not allocate.
	touched []*cacheRegion //uflint:scratch — per-call buffer, dead between calls
	// backing and words hold the regions resetFrom copies in, retained so
	// resetting a recycled cache allocates nothing.
	backing []cacheRegion //uflint:scratch — reuse buffer behind the resident regions
	words   []uint64      //uflint:scratch — reuse buffer behind their bitsets

	// Data plane (inner stack stores payloads only): buffered bytes per
	// dirty line, the inner layer's data interfaces, and a flush-run
	// staging buffer.
	dataMode  bool
	lineData  map[int64][]byte
	innerData DataPlane //uflint:shared — wired at construction from the inner stack
	innerPeek peeker    //uflint:shared — wired at construction from the inner stack
	runBuf    []byte    //uflint:scratch — flush-run staging; contents dead between calls
}

// NewWriteCache wraps inner with a region-coalescing write-back buffer. A
// zero (or negative) EvictBatch takes the documented default of 1 region per
// eviction episode.
func NewWriteCache(inner Translator, cfg CacheConfig, model CostModel) (*WriteCache, error) {
	if cfg.EvictBatch <= 0 {
		cfg.EvictBatch = 1
	}
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	linesPerRegion := int64(cfg.RegionBytes / cfg.LineBytes)
	nRegions := (inner.Capacity() + int64(cfg.RegionBytes) - 1) / int64(cfg.RegionBytes)
	c := &WriteCache{
		inner:          inner,
		model:          model,
		cfg:            cfg,
		linesPerRegion: linesPerRegion,
		lineWords:      int((linesPerRegion + 63) / 64),
		capLines:       cfg.CapacityBytes / int64(cfg.LineBytes),
		regions:        make([]*cacheRegion, nRegions),
	}
	if dp, ok := inner.(DataPlane); ok && dp.StoresData() {
		c.dataMode = true
		c.lineData = make(map[int64][]byte)
		c.innerData = dp
		c.innerPeek = inner.(peeker)
	}
	return c, nil
}

// Capacity returns the logical capacity of the underlying layer.
func (c *WriteCache) Capacity() int64 { return c.inner.Capacity() }

// newRegion returns a reset region for rid, recycled from the freelist when
// possible.
func (c *WriteCache) newRegion(rid int64) *cacheRegion {
	r := c.freeRegions
	if r != nil {
		c.freeRegions = r.next
		r.next = nil
		clear(r.lines)
		r.id, r.nlines, r.maxLine, r.stream = rid, 0, -1, false
		return r
	}
	return &cacheRegion{id: rid, lines: make([]uint64, c.lineWords), maxLine: -1}
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
	c.model, c.cfg = src.model, src.cfg
	c.linesPerRegion, c.lineWords, c.capLines = src.linesPerRegion, src.lineWords, src.capLines
	// Only the resident regions have dense-index entries to drop.
	if len(c.regions) != len(src.regions) {
		c.regions = make([]*cacheRegion, len(src.regions))
	} else {
		for _, l := range [...]*regionList{&c.streamLRU, &c.zoneLRU} {
			for r := l.front; r != nil; r = r.next {
				c.regions[r.id] = nil
			}
		}
	}
	c.streamLRU, c.zoneLRU, c.freeRegions = regionList{}, regionList{}, nil
	// All resident regions of the copy share one retained backing array and
	// one bitset block: this is the shard fan-out hot path.
	n := src.streamLRU.n + src.zoneLRU.n
	if cap(c.backing) < n || cap(c.words) < n*src.lineWords {
		c.backing = make([]cacheRegion, n)
		c.words = make([]uint64, n*src.lineWords)
	}
	c.backing, c.words = c.backing[:n], c.words[:n*src.lineWords]
	i := 0
	for _, l := range [...]struct{ src, dst *regionList }{{&src.streamLRU, &c.streamLRU}, {&src.zoneLRU, &c.zoneLRU}} {
		for r := l.src.front; r != nil; r = r.next {
			nr := &c.backing[i]
			*nr = cacheRegion{
				id:      r.id,
				lines:   c.words[i*src.lineWords : (i+1)*src.lineWords : (i+1)*src.lineWords],
				nlines:  r.nlines,
				maxLine: r.maxLine,
				stream:  r.stream,
			}
			copy(nr.lines, r.lines)
			i++
			l.dst.pushBack(nr)
			c.regions[nr.id] = nr
		}
	}
	c.totalLines, c.stats, c.idleCredit = src.totalLines, src.stats, src.idleCredit
	c.dataMode, c.lineData, c.innerData, c.innerPeek = src.dataMode, nil, nil, nil
	if src.dataMode {
		c.lineData = make(map[int64][]byte, len(src.lineData))
		for l, buf := range src.lineData {
			c.lineData[l] = append([]byte(nil), buf...)
		}
		c.innerData = c.inner.(DataPlane)
		c.innerPeek = c.inner.(peeker)
	}
	return true
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
func (c *WriteCache) Stats() CacheStats { return c.stats }

// DirtyLines returns the number of buffered dirty lines.
func (c *WriteCache) DirtyLines() int64 { return c.totalLines }

// OpenRegions returns the number of regions holding dirty lines.
func (c *WriteCache) OpenRegions() int { return c.streamLRU.n + c.zoneLRU.n }

// Inner returns the wrapped translation layer.
func (c *WriteCache) Inner() Translator { return c.inner }

func (c *WriteCache) lruOf(r *cacheRegion) *regionList {
	if r.stream {
		return &c.streamLRU
	}
	return &c.zoneLRU
}

// flushRegion writes all dirty lines of r through to the inner layer as
// contiguous runs and removes the region. In data mode the buffered line
// bytes travel down with each run (zeros for lines dirtied through the
// plain, payload-less Write).
func (c *WriteCache) flushRegion(r *cacheRegion, ops *Ops) error {
	c.lruOf(r).remove(r)
	c.regions[r.id] = nil
	c.totalLines -= r.nlines
	lb := int64(c.cfg.LineBytes)
	base := r.id * int64(c.cfg.RegionBytes)
	firstLine := r.id * c.linesPerRegion
	for from := int64(0); ; {
		runStart, endExclusive, ok := r.nextRun(from)
		if !ok {
			break
		}
		from = endExclusive
		off, length := base+runStart*lb, (endExclusive-runStart)*lb
		var inner Ops
		var err error
		if c.dataMode {
			if int64(len(c.runBuf)) < length {
				c.runBuf = make([]byte, c.cfg.RegionBytes)
			}
			run := c.runBuf[:length]
			clear(run)
			for l := runStart; l < endExclusive; l++ {
				if buf, ok := c.lineData[firstLine+l]; ok {
					copy(run[(l-runStart)*lb:], buf)
					delete(c.lineData, firstLine+l)
				}
			}
			inner, err = c.innerData.WriteData(off, run)
		} else {
			inner, err = c.inner.Write(off, length)
		}
		if err != nil {
			return err
		}
		ops.Add(inner)
	}
	// Park the struct for reuse only after a complete flush; an error above
	// leaves it detached so callers holding the pointer never see it recycled.
	r.prev, r.next = nil, c.freeRegions
	c.freeRegions = r
	return nil
}

// admitCost charges the buffer-admission cost for bytes written, sequential
// or not.
func (c *WriteCache) admitCost(bytes int64, sequential bool, ops *Ops) {
	if !c.cfg.FlashBacked {
		ops.RAMBytes += bytes
		return
	}
	pages := (bytes + int64(c.cfg.PageBytes) - 1) / int64(c.cfg.PageBytes)
	if pages < 1 {
		pages = 1
	}
	per := c.cfg.RandAdmitPerPage
	if sequential {
		per = c.cfg.SeqAdmitPerPage
	}
	ops.Stall += time.Duration(pages) * per
}

// Write buffers the lines the write covers, applying the stream/zone policy.
func (c *WriteCache) Write(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, c.inner.Capacity()); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	lb := int64(c.cfg.LineBytes)
	l0 := off / lb
	l1 := (off + length - 1) / lb
	seq := true
	touched := c.touched[:0]
	for gl := l0; gl <= l1; {
		rid := gl / c.linesPerRegion
		r := c.regions[rid]
		if r == nil {
			r = c.newRegion(rid)
			c.zoneLRU.pushFront(r)
			c.regions[rid] = r
		}
		firstLine := gl % c.linesPerRegion
		ascending := r.maxLine >= 0 && firstLine == r.maxLine+1
		// A write opening a region at its start is charged as a
		// sequential append (the zone cannot tell yet), but promotion
		// to a stream buffer still requires a confirmed extension.
		openAtStart := r.maxLine < 0 && firstLine == 0
		switch {
		case ascending && !r.stream:
			// A write extending the region in order reveals a
			// sequential stream: promote to a write-combining buffer.
			c.zoneLRU.remove(r)
			r.stream = true
			c.streamLRU.pushFront(r)
			c.stats.Promotions++
		case !ascending && r.maxLine >= 0 && r.stream:
			// Out-of-order write to a stream buffer: demote.
			c.streamLRU.remove(r)
			r.stream = false
			c.zoneLRU.pushFront(r)
		default:
			c.lruOf(r).moveToFront(r)
		}
		if !ascending && !openAtStart {
			seq = false
		}
		last := min(l1, (rid+1)*c.linesPerRegion-1)
		n := last - gl + 1
		hits := r.markDirty(firstLine, last-rid*c.linesPerRegion)
		c.stats.Hits += hits
		c.stats.Misses += n - hits
		c.totalLines += n - hits
		gl = last + 1
		touched = append(touched, r)
	}
	c.admitCost(length, seq, &ops)
	err := c.enforceBounds(touched, &ops)
	clear(touched) // drop region pointers so flushed regions can be freed
	c.touched = touched[:0]
	return ops, err
}

// enforceBounds flushes what a write to the touched regions pushed over a
// bound: completed regions, then streams beyond the Streams bound, then LRU
// regions beyond the capacity.
func (c *WriteCache) enforceBounds(touched []*cacheRegion, ops *Ops) error {
	// Fully written regions flush immediately (cheap switch merge below).
	for _, r := range touched {
		if c.regions[r.id] == r && r.nlines == c.linesPerRegion {
			c.stats.CompleteFlush++
			if err := c.flushRegion(r, ops); err != nil {
				return err
			}
		}
	}
	// Stream bound: too many concurrent sequential streams force partial
	// flushes (the Partitioning cliff).
	for c.cfg.Streams > 0 && c.streamLRU.n > c.cfg.Streams {
		c.stats.StreamFlushes++
		if err := c.flushRegion(c.streamLRU.back, ops); err != nil {
			return err
		}
	}
	// Capacity bound: evict LRU zone regions (streams as a last resort),
	// a batch at a time.
	if c.totalLines > c.capLines {
		// EvictBatch is normalized to >= 1 by NewWriteCache.
		batch := c.cfg.EvictBatch
		for i := 0; (i < batch || c.totalLines > c.capLines) && c.totalLines > 0; i++ {
			var r *cacheRegion
			if c.zoneLRU.n > 0 {
				r = c.zoneLRU.back
			} else if c.streamLRU.n > 0 {
				r = c.streamLRU.back
			} else {
				break
			}
			c.stats.CapFlushes++
			if err := c.flushRegion(r, ops); err != nil {
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
	if err := checkRange(off, length, c.inner.Capacity()); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	lb := int64(c.cfg.LineBytes)
	l0 := off / lb
	l1 := (off + length - 1) / lb
	spanStart := int64(-1)
	forward := func(endExclusive int64) error {
		if spanStart < 0 {
			return nil
		}
		inner, err := c.inner.Read(spanStart*lb, (endExclusive-spanStart)*lb)
		if err != nil {
			return err
		}
		ops.Add(inner)
		spanStart = -1
		return nil
	}
	// One region at a time: every dirty run inside the request ends the
	// unbuffered span before it and is served from the buffer.
	for gl := l0; gl <= l1; {
		rid := gl / c.linesPerRegion
		base := rid * c.linesPerRegion
		last := min(l1, base+c.linesPerRegion-1)
		r := c.regions[rid]
		for gl <= last {
			runStart, runEnd := last+1, last+1
			if r != nil {
				if s, e, ok := r.nextRun(gl - base); ok && base+s <= last {
					runStart, runEnd = base+s, min(base+e, last+1)
				}
			}
			if runStart > gl && spanStart < 0 {
				spanStart = gl
			}
			if n := runEnd - runStart; n > 0 {
				if c.cfg.FlashBacked {
					ops.PageReads += int(n) * max(c.cfg.LineBytes/c.cfg.PageBytes, 1)
				} else {
					ops.RAMBytes += n * lb
				}
				if err := forward(runStart); err != nil {
					return ops, err
				}
			}
			gl = runEnd
		}
	}
	if err := forward(l1 + 1); err != nil {
		return ops, err
	}
	return ops, nil
}

// StoresData reports whether the stack underneath retains payloads.
func (c *WriteCache) StoresData() bool { return c.dataMode }

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the bytes buffered per line (and pushed down with every flush). Lines only
// partially covered by the write are read-filled from the inner layer first,
// so a later flush writes whole lines with correct content.
func (c *WriteCache) WriteData(off int64, data []byte) (Ops, error) {
	if !c.dataMode {
		return Ops{}, ErrNoDataStorage
	}
	if err := checkRange(off, int64(len(data)), c.inner.Capacity()); err != nil {
		return Ops{}, err
	}
	lb := int64(c.cfg.LineBytes)
	l0 := off / lb
	l1 := (off + int64(len(data)) - 1) / lb
	for gl := l0; gl <= l1; gl++ {
		buf, ok := c.lineData[gl]
		if !ok {
			buf = make([]byte, lb)
			lineStart := gl * lb
			if lineStart < off || lineStart+lb > off+int64(len(data)) {
				// Partially covered fresh line: fill with the bytes below
				// (a dirty-but-bufferless line from a plain Write stays
				// zeros — its content is unspecified anyway).
				if r := c.regions[gl/c.linesPerRegion]; r == nil || !r.dirty(gl%c.linesPerRegion) {
					c.innerPeek.peekData(lineStart, buf)
				}
			}
			c.lineData[gl] = buf
		}
		overlay(buf, gl*lb, data, off)
	}
	return c.Write(off, int64(len(data)))
}

// ReadData implements the data plane: exactly Read(off, len(buf)) plus the
// observed bytes — buffered lines from the cache, the rest from below.
func (c *WriteCache) ReadData(off int64, buf []byte) (Ops, error) {
	if !c.dataMode {
		return Ops{}, ErrNoDataStorage
	}
	ops, err := c.Read(off, int64(len(buf)))
	if err != nil {
		return ops, err
	}
	c.peekData(off, buf)
	return ops, nil
}

// peekData fills buf with the current bytes at off without any flash
// operation: dirty buffered lines win over the inner layer's content.
func (c *WriteCache) peekData(off int64, buf []byte) {
	lb := int64(c.cfg.LineBytes)
	for covered := int64(0); covered < int64(len(buf)); {
		gl := (off + covered) / lb
		lineOff := (off + covered) % lb
		n := lb - lineOff
		if rest := int64(len(buf)) - covered; n > rest {
			n = rest
		}
		dst := buf[covered : covered+n]
		r := c.regions[gl/c.linesPerRegion]
		switch {
		case r != nil && r.dirty(gl%c.linesPerRegion):
			clear(dst)
			if line, has := c.lineData[gl]; has {
				copy(dst, line[lineOff:])
			}
		default:
			c.innerPeek.peekData(off+covered, dst)
		}
		covered += n
	}
}

// Idle forwards idle time to the inner layer and, when configured, destages
// dirty regions with the remaining credit.
func (c *WriteCache) Idle(d time.Duration) {
	c.inner.Idle(d)
	if !c.cfg.DestageOnIdle || d <= 0 {
		return
	}
	c.idleCredit += d
	const maxCredit = time.Second
	if c.idleCredit > maxCredit {
		c.idleCredit = maxCredit
	}
	for c.idleCredit > 0 && (c.zoneLRU.n > 0 || c.streamLRU.n > 0) {
		var r *cacheRegion
		if c.zoneLRU.n > 0 {
			r = c.zoneLRU.back
		} else {
			r = c.streamLRU.back
		}
		var ops Ops
		c.stats.IdleDestages++
		if err := c.flushRegion(r, &ops); err != nil {
			return
		}
		cost := c.model.Cost(&ops)
		if cost <= 0 {
			cost = time.Microsecond
		}
		c.idleCredit -= cost
	}
}
