package ftl

import (
	"fmt"
	"math/bits"
	"time"

	"uflip/internal/flash"
)

// This file defines the exported, serializable form of every translation
// layer's mutable state. A snapshot captures exactly what Clone copies —
// maps, pools, heap layouts, LRU orders, buffers, stats and the flash
// underneath — so the persistent state store can write an enforced device to
// disk and later restore it into a freshly constructed stack, with results
// byte-identical to keeping the original in memory. Restoring always targets
// a layer built from the same configuration; structural mismatches are
// errors, never silent truncation.

// ArraySnapshot is the state of a chip array.
type ArraySnapshot struct {
	Chips []*flash.ChipSnapshot
}

// Snapshot captures every chip.
func (a *Array) Snapshot() *ArraySnapshot {
	s := &ArraySnapshot{Chips: make([]*flash.ChipSnapshot, len(a.chips))}
	for i, c := range a.chips {
		s.Chips[i] = c.Snapshot()
	}
	return s
}

// Restore overwrites every chip's state from the snapshot.
func (a *Array) Restore(s *ArraySnapshot) error {
	if s == nil {
		return fmt.Errorf("ftl: nil array snapshot")
	}
	if len(s.Chips) != len(a.chips) {
		return fmt.Errorf("ftl: snapshot has %d chips, array %d", len(s.Chips), len(a.chips))
	}
	for i, cs := range s.Chips {
		if err := a.chips[i].Restore(cs); err != nil {
			return fmt.Errorf("ftl: chip %d: %w", i, err)
		}
	}
	return nil
}

// FreeBlockSnapshot is one entry of the pre-erased pool. The slice order in
// a snapshot is the queue's internal array layout, which re-queueing the
// entries in order reproduces verbatim. (The PageFTL's garbage-collection
// candidates are not serialized: Restore derives them from the block state.)
type FreeBlockSnapshot struct {
	Block      int
	EraseCount int
}

func (q *blockQueue) snapshotFree() []FreeBlockSnapshot {
	var s []FreeBlockSnapshot
	for _, k := range q.keys {
		s = append(s, FreeBlockSnapshot{Block: int(k & keyBlockMask), EraseCount: int(k >> keyBlockBits)})
	}
	return s
}

func (q *blockQueue) restoreFree(s []FreeBlockSnapshot) error {
	q.reset()
	for _, fb := range s {
		if fb.Block < 0 || fb.Block >= len(q.pos) || q.contains(fb.Block) || fb.EraseCount < 0 || fb.EraseCount >= 1<<keyEraseBits {
			return fmt.Errorf("ftl: snapshot free-pool entry %+v invalid", fb)
		}
		q.push(packKey(0, fb.EraseCount, fb.Block))
	}
	return nil
}

// WritePointSnapshot is the state of one append stream.
type WritePointSnapshot struct {
	Block    int
	NextSlot int
	LastUnit int64
	LastUse  int64
}

// MapBookSnapshot is the on-flash direct-map bookkeeping state.
type MapBookSnapshot struct {
	Dirty       []int64 // dirty map pages (set; order irrelevant)
	Order       []int64 // FIFO ring buffer, verbatim
	Head        int
	Queued      int
	LastFlushed int64
}

func (b *mapBook) snapshot() MapBookSnapshot {
	s := MapBookSnapshot{
		Order:       append([]int64(nil), b.order...),
		Head:        b.head,
		Queued:      b.queued,
		LastFlushed: b.lastFlushed,
	}
	// The dirty set is exactly the queued window of the ring; serialize it
	// from the ring so the snapshot is deterministic.
	for i := 0; i < b.queued; i++ {
		s.Dirty = append(s.Dirty, b.order[(b.head+i)%len(b.order)])
	}
	return s
}

func (b *mapBook) restore(s MapBookSnapshot) error {
	if len(s.Order) != len(b.order) {
		return fmt.Errorf("ftl: map book ring size %d does not match %d", len(s.Order), len(b.order))
	}
	if s.Queued < 0 || s.Queued > len(s.Order) || len(s.Dirty) != s.Queued {
		return fmt.Errorf("ftl: map book snapshot inconsistent (%d dirty, %d queued)", len(s.Dirty), s.Queued)
	}
	if s.Head < 0 || s.Head >= len(s.Order) {
		return fmt.Errorf("ftl: map book head %d out of range", s.Head)
	}
	// The dirty set is derived from the ring's queued window; a page the
	// bitset cannot hold, or one queued twice, is a corrupt snapshot.
	clear(b.dirty)
	for i := 0; i < s.Queued; i++ {
		page := s.Order[(s.Head+i)%len(s.Order)]
		if page < 0 || page >= int64(len(b.dirty))*64 {
			return fmt.Errorf("ftl: map book snapshot queues map page %d, outside [0,%d)", page, int64(len(b.dirty))*64)
		}
		if !b.setDirty(page) {
			return fmt.Errorf("ftl: map book snapshot queues map page %d twice", page)
		}
	}
	copy(b.order, s.Order)
	b.head = s.Head
	b.queued = s.Queued
	b.lastFlushed = s.LastFlushed
	return nil
}

// PageFTLSnapshot is the full mutable state of a PageFTL.
type PageFTLSnapshot struct {
	Arr          *ArraySnapshot
	FMap         []int64
	RMap         []int64
	Live         []int32
	IsOpen       []bool
	Free         []FreeBlockSnapshot
	WPs          []WritePointSnapshot
	GCWP         WritePointSnapshot
	Tick         int64
	Book         MapBookSnapshot
	IdleCredit   time.Duration
	Stats        Stats
	LastReadSlot int64
}

func wpSnapshot(wp writePoint) WritePointSnapshot {
	return WritePointSnapshot{Block: wp.block, NextSlot: wp.nextSlot, LastUnit: wp.lastUnit, LastUse: wp.lastUse}
}

func wpRestore(s WritePointSnapshot) writePoint {
	return writePoint{block: s.Block, nextSlot: s.NextSlot, lastUnit: s.LastUnit, lastUse: s.LastUse}
}

// Snapshot captures the FTL and the flash underneath.
func (f *PageFTL) Snapshot() *PageFTLSnapshot {
	s := &PageFTLSnapshot{
		Arr:          f.arr.Snapshot(),
		FMap:         append([]int64(nil), f.fmap...),
		RMap:         append([]int64(nil), f.rmap...),
		Live:         append([]int32(nil), f.live...),
		IsOpen:       append([]bool(nil), f.isOpen...),
		Free:         f.free.snapshotFree(),
		GCWP:         wpSnapshot(f.gcWP),
		Tick:         f.tick,
		Book:         f.book.snapshot(),
		IdleCredit:   f.idleCredit,
		Stats:        f.stats,
		LastReadSlot: f.lastReadSlot,
	}
	for _, wp := range f.wps {
		s.WPs = append(s.WPs, wpSnapshot(wp))
	}
	return s
}

// Restore overwrites the FTL's mutable state from the snapshot. The FTL must
// have been constructed with the same configuration over an identically
// shaped array.
func (f *PageFTL) Restore(s *PageFTLSnapshot) error {
	switch {
	case s == nil:
		return fmt.Errorf("ftl: nil page FTL snapshot")
	case len(s.FMap) != len(f.fmap):
		return fmt.Errorf("ftl: snapshot fmap has %d units, FTL %d", len(s.FMap), len(f.fmap))
	case len(s.RMap) != len(f.rmap):
		return fmt.Errorf("ftl: snapshot rmap has %d slots, FTL %d", len(s.RMap), len(f.rmap))
	case len(s.Live) != len(f.live) || len(s.IsOpen) != len(f.isOpen):
		return fmt.Errorf("ftl: snapshot block-state lengths do not match the array")
	case len(s.WPs) != len(f.wps):
		return fmt.Errorf("ftl: snapshot has %d write points, FTL %d", len(s.WPs), len(f.wps))
	}
	if err := f.arr.Restore(s.Arr); err != nil {
		return err
	}
	copy(f.fmap, s.FMap)
	copy(f.rmap, s.RMap)
	copy(f.live, s.Live)
	copy(f.isOpen, s.IsOpen)
	if err := f.free.restoreFree(s.Free); err != nil {
		return err
	}
	f.rebuildVictims()
	for i, wp := range s.WPs {
		f.wps[i] = wpRestore(wp)
	}
	f.gcWP = wpRestore(s.GCWP)
	f.tick = s.Tick
	if err := f.book.restore(s.Book); err != nil {
		return err
	}
	f.idleCredit = s.IdleCredit
	f.stats = s.Stats
	f.lastReadSlot = s.LastReadSlot
	f.pending = nil
	return nil
}

// LogSnapshot is one replacement ("log") block of a BlockFTL.
type LogSnapshot struct {
	LBN      int64
	PB       int
	NextPage int
	LastUse  int64
}

// BlockFTLSnapshot is the full mutable state of a BlockFTL.
type BlockFTLSnapshot struct {
	Arr          *ArraySnapshot
	Data         []int32
	Logs         []LogSnapshot // sorted by LBN for a deterministic encoding
	Free         []FreeBlockSnapshot
	Tick         int64
	Book         MapBookSnapshot
	Stats        Stats
	LastReadSlot int64
}

// Snapshot captures the FTL and the flash underneath.
func (f *BlockFTL) Snapshot() *BlockFTLSnapshot {
	s := &BlockFTLSnapshot{
		Arr:          f.arr.Snapshot(),
		Data:         append([]int32(nil), f.data...),
		Free:         f.free.snapshotFree(),
		Tick:         f.tick,
		Book:         f.book.snapshot(),
		Stats:        f.stats,
		LastReadSlot: f.lastReadSlot,
	}
	for _, e := range f.logs {
		if e.lbn >= 0 {
			s.Logs = append(s.Logs, LogSnapshot{LBN: e.lbn, PB: e.pb, NextPage: e.nextPage, LastUse: e.lastUse})
		}
	}
	// Which slot holds a log is arbitrary; sort so identical states snapshot
	// identically.
	for i := 1; i < len(s.Logs); i++ {
		for j := i; j > 0 && s.Logs[j].LBN < s.Logs[j-1].LBN; j-- {
			s.Logs[j], s.Logs[j-1] = s.Logs[j-1], s.Logs[j]
		}
	}
	return s
}

// Restore overwrites the FTL's mutable state from the snapshot.
func (f *BlockFTL) Restore(s *BlockFTLSnapshot) error {
	switch {
	case s == nil:
		return fmt.Errorf("ftl: nil block FTL snapshot")
	case len(s.Data) != len(f.data):
		return fmt.Errorf("ftl: snapshot maps %d logical blocks, FTL %d", len(s.Data), len(f.data))
	case len(s.Logs) > f.cfg.LogBlocks:
		return fmt.Errorf("ftl: snapshot has %d logs, FTL allows %d", len(s.Logs), f.cfg.LogBlocks)
	}
	if err := f.arr.Restore(s.Arr); err != nil {
		return err
	}
	copy(f.data, s.Data)
	if err := f.free.restoreFree(s.Free); err != nil {
		return err
	}
	for i := range f.logs {
		f.logs[i].lbn = -1
	}
	for i, l := range s.Logs {
		switch {
		case l.LBN < 0 || l.LBN >= f.lbnCount:
			return fmt.Errorf("ftl: snapshot log for logical block %d, FTL maps [0,%d)", l.LBN, f.lbnCount)
		case f.logOf(l.LBN) != nil:
			return fmt.Errorf("ftl: snapshot has two logs for logical block %d", l.LBN)
		case l.PB < 0 || l.PB >= f.arr.Blocks() || f.free.contains(l.PB):
			return fmt.Errorf("ftl: snapshot log block %d is outside the array or in the free pool", l.PB)
		case l.NextPage < 0 || l.NextPage > f.pagesPerBlock:
			return fmt.Errorf("ftl: snapshot log cursor %d outside [0,%d]", l.NextPage, f.pagesPerBlock)
		}
		for _, e := range f.logs[:i] {
			if e.pb == l.PB {
				return fmt.Errorf("ftl: snapshot log block %d serves two logical blocks", l.PB)
			}
		}
		f.logs[i] = logEnt{lbn: l.LBN, pb: l.PB, nextPage: l.NextPage, lastUse: l.LastUse}
	}
	f.tick = s.Tick
	if err := f.book.restore(s.Book); err != nil {
		return err
	}
	f.stats = s.Stats
	f.lastReadSlot = s.LastReadSlot
	f.pending = nil
	return nil
}

// RegionSnapshot is one buffered cache region. Regions are serialized in LRU
// order (front = MRU), which fully determines both chains.
type RegionSnapshot struct {
	ID      int64
	Lines   []int64 // dirty line indexes within the region, sorted
	MaxLine int64
	Stream  bool
}

// CacheSnapshot is the full mutable state of a WriteCache, including the
// inner layer's snapshot.
type CacheSnapshot struct {
	Inner      *TranslatorSnapshot
	StreamLRU  []RegionSnapshot // front (MRU) to back (LRU)
	ZoneLRU    []RegionSnapshot
	TotalLines int64
	Stats      CacheStats
	IdleCredit time.Duration
	// LineData holds buffered line payloads; nil unless the stack stores
	// data.
	LineData map[int64][]byte
}

func regionSnapshot(r *cacheRegion) RegionSnapshot {
	s := RegionSnapshot{ID: r.id, MaxLine: r.maxLine, Stream: r.stream}
	if r.nlines > 0 {
		// Walking the bitset words in order yields the lines already sorted.
		s.Lines = make([]int64, 0, r.nlines)
		for w, word := range r.lines {
			for ; word != 0; word &= word - 1 {
				s.Lines = append(s.Lines, int64(w)*64+int64(bits.TrailingZeros64(word)))
			}
		}
	}
	return s
}

// Snapshot captures the cache and the stack underneath.
func (c *WriteCache) Snapshot() (*CacheSnapshot, error) {
	inner, err := SnapshotTranslator(c.inner)
	if err != nil {
		return nil, err
	}
	s := &CacheSnapshot{
		Inner:      inner,
		TotalLines: c.totalLines,
		Stats:      c.stats,
		IdleCredit: c.idleCredit,
	}
	for r := c.streamLRU.front; r != nil; r = r.next {
		s.StreamLRU = append(s.StreamLRU, regionSnapshot(r))
	}
	for r := c.zoneLRU.front; r != nil; r = r.next {
		s.ZoneLRU = append(s.ZoneLRU, regionSnapshot(r))
	}
	if c.dataMode {
		s.LineData = make(map[int64][]byte, len(c.lineData))
		for l, buf := range c.lineData {
			s.LineData[l] = append([]byte(nil), buf...)
		}
	}
	return s, nil
}

// Restore overwrites the cache's mutable state from the snapshot.
func (c *WriteCache) Restore(s *CacheSnapshot) error {
	if s == nil {
		return fmt.Errorf("ftl: nil cache snapshot")
	}
	// gob decodes an empty map as nil, so a nil LineData is valid for a
	// data-mode cache (no buffered lines); only payloads a non-data cache
	// cannot hold are a mismatch.
	if len(s.LineData) > 0 && !c.dataMode {
		return fmt.Errorf("ftl: snapshot carries line data but the cache does not store payloads")
	}
	if err := RestoreTranslator(c.inner, s.Inner); err != nil {
		return err
	}
	clear(c.regions)
	c.streamLRU, c.zoneLRU = regionList{}, regionList{}
	c.freeRegions = nil
	restoreChain := func(snaps []RegionSnapshot, stream bool) error {
		for _, rs := range snaps {
			if rs.Stream != stream {
				return fmt.Errorf("ftl: region %d in the wrong LRU chain", rs.ID)
			}
			if rs.ID < 0 || rs.ID >= int64(len(c.regions)) {
				return fmt.Errorf("ftl: region %d out of range", rs.ID)
			}
			if c.regions[rs.ID] != nil {
				return fmt.Errorf("ftl: region %d appears twice in the snapshot", rs.ID)
			}
			r := c.newRegion(rs.ID)
			r.maxLine = rs.MaxLine
			r.stream = rs.Stream
			for _, l := range rs.Lines {
				if l < 0 || l >= c.linesPerRegion {
					return fmt.Errorf("ftl: region %d line %d out of range", rs.ID, l)
				}
				if w, bit := l>>6, uint64(1)<<(uint(l)&63); r.lines[w]&bit == 0 {
					r.lines[w] |= bit
					r.nlines++
				}
			}
			c.lruOf(r).pushBack(r)
			c.regions[rs.ID] = r
		}
		return nil
	}
	if err := restoreChain(s.StreamLRU, true); err != nil {
		return err
	}
	if err := restoreChain(s.ZoneLRU, false); err != nil {
		return err
	}
	var lines int64
	for r := c.streamLRU.front; r != nil; r = r.next {
		lines += r.nlines
	}
	for r := c.zoneLRU.front; r != nil; r = r.next {
		lines += r.nlines
	}
	if lines != s.TotalLines {
		return fmt.Errorf("ftl: snapshot claims %d dirty lines, regions hold %d", s.TotalLines, lines)
	}
	c.totalLines = s.TotalLines
	c.stats = s.Stats
	c.idleCredit = s.IdleCredit
	if c.dataMode {
		c.lineData = make(map[int64][]byte, len(s.LineData))
		for l, buf := range s.LineData {
			c.lineData[l] = append([]byte(nil), buf...)
		}
	}
	return nil
}

// TranslatorSnapshot is the polymorphic snapshot of a translation stack:
// exactly one field is set, matching the stack's top layer.
type TranslatorSnapshot struct {
	Page  *PageFTLSnapshot
	Block *BlockFTLSnapshot
	Cache *CacheSnapshot
}

// SnapshotTranslator captures any of the three translation layers.
func SnapshotTranslator(t Translator) (*TranslatorSnapshot, error) {
	switch f := t.(type) {
	case *PageFTL:
		return &TranslatorSnapshot{Page: f.Snapshot()}, nil
	case *BlockFTL:
		return &TranslatorSnapshot{Block: f.Snapshot()}, nil
	case *WriteCache:
		s, err := f.Snapshot()
		if err != nil {
			return nil, err
		}
		return &TranslatorSnapshot{Cache: s}, nil
	default:
		return nil, fmt.Errorf("ftl: translator %T cannot be snapshotted", t)
	}
}

// RestoreTranslator applies a snapshot to a freshly constructed stack of the
// same shape.
func RestoreTranslator(t Translator, s *TranslatorSnapshot) error {
	if s == nil {
		return fmt.Errorf("ftl: nil translator snapshot")
	}
	switch f := t.(type) {
	case *PageFTL:
		if s.Page == nil {
			return fmt.Errorf("ftl: snapshot is not a page FTL")
		}
		return f.Restore(s.Page)
	case *BlockFTL:
		if s.Block == nil {
			return fmt.Errorf("ftl: snapshot is not a block FTL")
		}
		return f.Restore(s.Block)
	case *WriteCache:
		if s.Cache == nil {
			return fmt.Errorf("ftl: snapshot is not a write cache")
		}
		return f.Restore(s.Cache)
	default:
		return fmt.Errorf("ftl: translator %T cannot be restored", t)
	}
}
