package ftl

import (
	"fmt"
	"time"
)

// PageConfig configures a PageFTL.
type PageConfig struct {
	// LogicalBytes is the capacity exposed to the host. It must leave at
	// least ReserveBlocks+WritePoints+2 blocks of raw flash headroom.
	LogicalBytes int64
	// UnitBytes is the mapping granularity (a multiple of the flash page
	// size that divides the flash block size). This is the granularity
	// the Granularity micro-benchmark probes.
	UnitBytes int
	// WritePoints is the number of concurrent append streams the FTL
	// tracks. Sequential streams beyond this count interleave into shared
	// blocks and later cost garbage-collection copies (the Partitioning
	// cliff of Table 3).
	WritePoints int
	// ReserveBlocks is the target size of the pre-erased free pool. A
	// full pool is what produces the cheap start-up phase of Figure 3;
	// once drained, garbage collection runs inline and write cost starts
	// oscillating.
	ReserveBlocks int
	// AsyncReclaim lets idle time between IOs refill the free pool (the
	// Pause/Bursts effect of Table 3, and the lingering interference of
	// Figure 5).
	AsyncReclaim bool
	// ReadSteal is the fraction of a read's cost additionally stalled to
	// fund background reclamation while the pool is below target (the
	// lingering effect after a random-write batch, Figure 5). 0 disables.
	ReadSteal float64
	// MapDirtyLimit bounds the dirty direct-map pages buffered in RAM
	// before one is flushed to flash; MapUnitsPerPage is how many mapping
	// entries one on-flash map page covers. Together they make widely
	// scattered writes pay extra bookkeeping (the Order/large-Incr rows).
	MapDirtyLimit   int
	MapUnitsPerPage int
	// GCBatch is how many victims one inline garbage-collection episode
	// reclaims (default 1). Batching is what makes the running-phase cost
	// oscillate between cheap writes and expensive reclamation episodes
	// (Figure 3) instead of averaging out.
	GCBatch int
	// JournalMaxBytes routes host writes of at most this size (and
	// smaller than the mapping unit) through a fine-granularity journal:
	// they pay program cost only for the pages actually written instead
	// of a full-unit read-modify-write. This reproduces the Figure 6
	// observation on the Memoright SSD that four 4 KB random writes take
	// about as long as one 16 KB random write. (The physical unit
	// relocation still happens; only the timing of the sub-unit path is
	// short-circuited, with the journal's own merge cost folded into the
	// mapping unit's eventual GC.) Zero disables the journal.
	JournalMaxBytes int64
}

func (c PageConfig) validate(a *Array) error {
	pageSize := a.Geometry().PageSize
	blockSize := a.Geometry().BlockSize()
	switch {
	case !isPow2(pageSize) || !isPow2(a.Geometry().PagesPerBlock):
		return fmt.Errorf("ftl: page size %d and pages per block %d must be powers of two", pageSize, a.Geometry().PagesPerBlock)
	case c.LogicalBytes <= 0:
		return fmt.Errorf("ftl: LogicalBytes must be positive")
	case c.UnitBytes < pageSize || c.UnitBytes%pageSize != 0:
		return fmt.Errorf("ftl: UnitBytes %d must be a positive multiple of the page size %d", c.UnitBytes, pageSize)
	case blockSize%c.UnitBytes != 0:
		return fmt.Errorf("ftl: UnitBytes %d must divide the block size %d", c.UnitBytes, blockSize)
	case c.WritePoints < 1:
		return fmt.Errorf("ftl: WritePoints must be >= 1")
	case c.ReserveBlocks < 2:
		return fmt.Errorf("ftl: ReserveBlocks must be >= 2")
	case c.MapDirtyLimit < 1 || c.MapUnitsPerPage < 1:
		return fmt.Errorf("ftl: map bookkeeping parameters must be >= 1")
	}
	logicalBlocks := (c.LogicalBytes + int64(blockSize) - 1) / int64(blockSize)
	need := logicalBlocks + int64(c.ReserveBlocks+c.WritePoints+2)
	if int64(a.Blocks()) < need {
		return fmt.Errorf("ftl: array has %d blocks, page FTL needs >= %d (logical %d + reserve %d + write points %d + 2)",
			a.Blocks(), need, logicalBlocks, c.ReserveBlocks, c.WritePoints)
	}
	return nil
}

// WritePoint is one append stream.
type WritePoint struct {
	Block    int   // physical block being filled, -1 if none
	NextSlot int   // next unit slot within block
	LastUnit int64 // last logical unit appended (stream detection)
	LastUse  int64 // LRU tick
}

// PageFTLState is everything about a PageFTL that changes as it runs, beside
// its free pool, its map book and the flash underneath, which keep their own.
// It is the struct the FTL runs on.
type PageFTLState struct {
	FMap   []int64 // logical unit -> physical slot (block*unitsPerBlock+slot), -1 unmapped
	RMap   []int64 // physical slot -> logical unit, -1 free/obsolete
	Live   []int32 // physical block -> live unit count
	IsOpen []bool  // block currently attached to a write point

	WPs  []WritePoint
	GCWP WritePoint
	Tick int64

	IdleCredit   time.Duration
	Stats        Stats
	LastReadSlot int64 // physical slot of previous page read, for pipelining
}

func (s *PageFTLState) copyFrom(src *PageFTLState) {
	s.FMap = append(s.FMap[:0], src.FMap...)
	s.RMap = append(s.RMap[:0], src.RMap...)
	s.Live = append(s.Live[:0], src.Live...)
	s.IsOpen = append(s.IsOpen[:0], src.IsOpen...)
	s.WPs = append(s.WPs[:0], src.WPs...)
	s.GCWP, s.Tick = src.GCWP, src.Tick
	s.IdleCredit, s.Stats, s.LastReadSlot = src.IdleCredit, src.Stats, src.LastReadSlot
}

// audit states the FTL's invariant: whether a PageFTL built as cfg, with
// the free pool free over flash in state arr (both already valid), could be
// in state s.
func (s *PageFTLState) audit(cfg *pageConfig, free *QueueState, arr *ArrayState) error {
	blocks, upb := arr.blocks(), cfg.unitsPerBlock
	switch {
	case len(s.FMap) != int(cfg.logicalUnits) || len(s.RMap) != blocks*upb || len(s.Live) != blocks || len(s.IsOpen) != blocks || len(s.WPs) != cfg.WritePoints:
		return fmt.Errorf("ftl: state tables (%d units, %d slots, %d and %d blocks, %d write points) are not this FTL's size", len(s.FMap), len(s.RMap), len(s.Live), len(s.IsOpen), len(s.WPs))
	case s.Tick < 0 || s.IdleCredit < 0 || s.Stats.negative() || s.LastReadSlot < -2 || s.LastReadSlot >= int64(blocks*upb*cfg.pagesPerUnit):
		return fmt.Errorf("ftl: state has a clock, counter or read position out of range (tick %d, idle credit %v, last read %d, %+v)", s.Tick, s.IdleCredit, s.LastReadSlot, s.Stats)
	}
	// The maps are mutually inverse, Live counts each block's mapped slots,
	// and a mapped slot's pages lie below its block's program cursor.
	for u, ps := range s.FMap {
		if ps < -1 || ps >= int64(len(s.RMap)) || (ps >= 0 && s.RMap[ps] != int64(u)) {
			return fmt.Errorf("ftl: unit %d maps to slot %d, which does not map back", u, ps)
		}
	}
	for b := 0; b < blocks; b++ {
		live, top := 0, 0
		for slot, u := range s.RMap[b*upb : (b+1)*upb] {
			if u < -1 || u >= cfg.logicalUnits || (u >= 0 && s.FMap[u] != int64(b*upb+slot)) {
				return fmt.Errorf("ftl: slot %d of block %d holds unit %d, which does not map back", slot, b, u)
			}
			if u >= 0 {
				live, top = live+1, slot+1
			}
		}
		if cursor := int(arr.block(b).NextPage); int(s.Live[b]) != live || top*cfg.pagesPerUnit > cursor {
			return fmt.Errorf("ftl: block %d counts %d live units and is programmed to page %d, its slots hold %d up to slot %d", b, s.Live[b], cursor, live, top)
		}
	}
	// A block is open exactly when one write point stands on it, at the chip's
	// cursor; a free block is closed and holds nothing.
	standing := make([]int, blocks)
	for i, wp := range append(s.WPs[:len(s.WPs):len(s.WPs)], s.GCWP) {
		switch {
		case wp.LastUnit < -2 || wp.LastUnit >= cfg.logicalUnits || wp.LastUse < 0 || wp.LastUse > s.Tick:
			return fmt.Errorf("ftl: write point %d has stream position (unit %d, tick %d) out of range", i, wp.LastUnit, wp.LastUse)
		case wp.Block == -1 && wp.NextSlot == 0:
		case wp.Block < 0 || wp.Block >= blocks || wp.NextSlot < 0 || wp.NextSlot > upb || int(arr.block(wp.Block).NextPage) != wp.NextSlot*cfg.pagesPerUnit:
			return fmt.Errorf("ftl: write point %d stands at slot %d of block %d, where the chip's cursor is not", i, wp.NextSlot, wp.Block)
		default:
			standing[wp.Block]++
		}
	}
	for b, isOpen := range s.IsOpen {
		if isOpen != (standing[b] == 1) || standing[b] > 1 || (isOpen && arr.block(b).Bad) {
			return fmt.Errorf("ftl: block %d is open=%v with %d write points on it (bad=%v)", b, isOpen, standing[b], arr.block(b).Bad)
		}
	}
	for _, k := range free.Keys {
		if b := k & keyBlockMask; s.IsOpen[b] || s.Live[b] != 0 {
			return fmt.Errorf("ftl: free block %d is open or holds live units", b)
		}
	}
	return nil
}

// pageConfig is what a PageFTL is built as: the profile's configuration and
// cost tables plus what construction derives from them and the geometry.
type pageConfig struct {
	PageConfig
	model CostModel

	unitBytes     int64
	pagesPerUnit  int
	unitsPerBlock int
	logicalUnits  int64
	// Every size is a power of two (validate): log2 of the page size, the
	// unit size, the pages per unit and the units per block.
	pageShift, unitShift, ppuShift, upbShift uint
}

// PageFTL is a page-granularity (unit-granularity) mapped flash translation
// layer with greedy garbage collection: the design of the high-end SSDs in
// the paper's device set.
type PageFTL struct {
	flashBooks // free is the pre-erased pool
	cfg        pageConfig
	st         PageFTLState

	// victims holds exactly the closed blocks with at least one obsolete
	// slot, keyed by their current live count: neither configuration nor
	// state but a function of the state, the free pool and the chips' bad
	// marks, which rederive rebuilds.
	victims blockQueue
}

// NewPageFTL builds a page-mapped FTL over the array. The flash must be in
// its factory (all-erased) state. A zero (or negative) GCBatch takes the
// documented default of 1 victim per collection episode.
func NewPageFTL(arr *Array, cfg PageConfig, model CostModel) (*PageFTL, error) {
	if cfg.GCBatch <= 0 {
		cfg.GCBatch = 1
	}
	if err := cfg.validate(arr); err != nil {
		return nil, err
	}
	blockSize := arr.Geometry().BlockSize()
	if err := checkKeyWidths(arr.Blocks(), arr.eraseLimit(), blockSize/cfg.UnitBytes); err != nil {
		return nil, err
	}
	f := &PageFTL{cfg: pageConfig{
		PageConfig:    cfg,
		model:         model,
		unitBytes:     int64(cfg.UnitBytes),
		pagesPerUnit:  cfg.UnitBytes / arr.Geometry().PageSize,
		unitsPerBlock: blockSize / cfg.UnitBytes,
		logicalUnits:  (cfg.LogicalBytes + int64(cfg.UnitBytes) - 1) / int64(cfg.UnitBytes),
		pageShift:     log2(arr.Geometry().PageSize),
		unitShift:     log2(cfg.UnitBytes),
		ppuShift:      log2(cfg.UnitBytes / arr.Geometry().PageSize),
		upbShift:      log2(blockSize / cfg.UnitBytes),
	}}
	f.flashBooks = newFlashBooks(arr, cfg.MapUnitsPerPage, cfg.MapDirtyLimit, f.cfg.logicalUnits)
	f.st.LastReadSlot = -2
	f.st.FMap = make([]int64, f.cfg.logicalUnits)
	for i := range f.st.FMap {
		f.st.FMap[i] = -1
	}
	f.st.RMap = make([]int64, int64(arr.Blocks())*int64(f.cfg.unitsPerBlock))
	for i := range f.st.RMap {
		f.st.RMap[i] = -1
	}
	f.st.Live = make([]int32, arr.Blocks())
	f.st.IsOpen = make([]bool, arr.Blocks())
	f.st.WPs = make([]WritePoint, cfg.WritePoints)
	for i := range f.st.WPs {
		f.st.WPs[i] = WritePoint{Block: -1, LastUnit: -2}
	}
	f.st.GCWP = WritePoint{Block: -1, LastUnit: -2}
	f.rederive()
	return f, nil
}

// Capacity returns the logical byte capacity.
func (f *PageFTL) Capacity() int64 { return f.cfg.LogicalBytes }

// Clone returns a deep copy of the FTL and the flash array underneath.
func (f *PageFTL) Clone() Translator {
	g := &PageFTL{}
	g.resetFrom(f)
	return g
}

// resetFrom makes f a deep copy of t — a PageFTL — and of the flash array
// underneath, reusing f's maps, pools and chips; f may be a zero value.
func (f *PageFTL) resetFrom(t Translator) bool {
	src, ok := t.(*PageFTL)
	if !ok {
		return false
	}
	f.resetBooks(&src.flashBooks)
	f.cfg = src.cfg
	f.st.copyFrom(&src.st)
	// src holds the candidates derived: copying them costs the candidates,
	// rederive every block of the array (20 µs of a 30 µs reset at 8k blocks).
	f.victims.load(&src.victims.QueueState, src.victims.key, len(f.st.Live))
	return true
}

// rederive rebuilds the garbage-collection candidates from the state, the free
// pool and the chips: every usable block that is neither open nor free and has
// an obsolete slot.
func (f *PageFTL) rederive() {
	f.victims.load(&QueueState{}, nil, len(f.st.Live))
	for b, live := range f.st.Live {
		if int(live) < f.cfg.unitsPerBlock && !f.st.IsOpen[b] && !f.free.contains(b) && !f.arr.IsBad(b) {
			f.pushVictim(b)
		}
	}
}

// Stats returns a snapshot of the FTL counters.
func (f *PageFTL) Stats() Stats { return f.st.Stats }

func (f *PageFTL) slotOf(block, slot int) int64 {
	return int64(block)<<f.cfg.upbShift + int64(slot)
}

// blockSlot splits a physical unit slot into its block and the slot within it.
func (f *PageFTL) blockSlot(ps int64) (block, slot int) {
	return int(ps >> f.cfg.upbShift), int(ps & int64(f.cfg.unitsPerBlock-1))
}

// allocBlock pops a pre-erased block. When the pool is empty (and forGC is
// false) it garbage-collects inline — a batch of GCBatch victims — which is
// what makes random-write cost oscillate once the start-up reserve is
// drained.
func (f *PageFTL) allocBlock(ops *Ops, forGC bool) (int, error) {
	if !forGC {
		for f.free.Len() < 2 {
			// GCBatch is normalized to >= 1 by NewPageFTL.
			for i := 0; i < f.cfg.GCBatch && f.victims.Len() > 0; i++ {
				if err := f.collectOne(ops); err != nil {
					return 0, err
				}
			}
			if f.victims.Len() == 0 && f.free.Len() < 2 {
				return 0, ErrNoSpace
			}
		}
	}
	if f.free.Len() == 0 {
		return 0, ErrNoSpace
	}
	block := int(f.free.pop() & keyBlockMask)
	f.st.IsOpen[block] = true
	return block, nil
}

// collectOne garbage-collects the closed block with the fewest live units,
// copying its live units through the GC write point and erasing it. The
// operations are charged to ops (inline/synchronous collection); pass a
// throwaway ops for background collection.
func (f *PageFTL) collectOne(ops *Ops) error {
	if f.victims.Len() == 0 {
		return ErrNoSpace
	}
	victim := int(f.victims.pop() & keyBlockMask)
	f.st.Stats.Merges++
	liveUnits := int(f.st.Live[victim])
	if liveUnits == 0 {
		f.st.Stats.SwitchMerges++
	}
	for slot := 0; slot < f.cfg.unitsPerBlock && liveUnits > 0; slot++ {
		ps := f.slotOf(victim, slot)
		unit := f.st.RMap[ps]
		if unit < 0 {
			continue
		}
		liveUnits--
		// Read the live unit's pages (merge path).
		if err := f.arr.ReadRun(victim, slot*f.cfg.pagesPerUnit, f.cfg.pagesPerUnit); err != nil {
			return fmt.Errorf("ftl: gc read: %w", err)
		}
		ops.MergeReads += f.cfg.pagesPerUnit
		f.st.Stats.PagesRead += int64(f.cfg.pagesPerUnit)
		// Relocate it through the GC write point.
		if err := f.appendUnit(&f.st.GCWP, unit, ops, true, 0); err != nil {
			return err
		}
	}
	if err := f.arr.EraseBlock(victim); err != nil {
		return fmt.Errorf("ftl: gc erase: %w", err)
	}
	ops.Erases++
	f.st.Stats.BlocksErased++
	f.st.Live[victim] = 0
	// Each relocation above obsoleted a slot of the victim itself — a closed
	// block — and so queued it again; an erased block is no candidate.
	f.victims.remove(victim)
	f.pushFree(victim)
	return nil
}

// pushVictim queues a closed block that has at least one obsolete slot as a
// garbage-collection candidate, or lowers the key of one already queued to
// its current live count. Blocks still attached to a write point and fully
// live blocks are never candidates; a fully live block enters the queue the
// moment one of its units is overwritten.
func (f *PageFTL) pushVictim(block int) {
	if f.st.IsOpen[block] || int(f.st.Live[block]) >= f.cfg.unitsPerBlock {
		return
	}
	ec, _ := f.arr.EraseCount(block)
	f.victims.push(packKey(int(f.st.Live[block]), ec, block))
}

func (f *PageFTL) closeWP(wp *WritePoint) {
	if wp.Block < 0 {
		return
	}
	f.st.IsOpen[wp.Block] = false
	f.pushVictim(wp.Block)
	wp.Block = -1
	wp.NextSlot = 0
}

// appendUnit writes one unit's worth of pages at wp — one program run —
// updating the maps. hostPages of the unit carry host-supplied data (streamed,
// well pipelined); the rest are read-modify-write copies priced on the merge
// path.
//
//uflint:hotpath
func (f *PageFTL) appendUnit(wp *WritePoint, unit int64, ops *Ops, forGC bool, hostPages int) error {
	if wp.Block < 0 || wp.NextSlot >= f.cfg.unitsPerBlock {
		f.closeWP(wp)
		b, err := f.allocBlock(ops, forGC)
		if err != nil {
			return err
		}
		wp.Block = b
		wp.NextSlot = 0
	}
	var payload []byte
	if f.staging != nil {
		// Stage the unit's payload — current content overlaid with any
		// pending host bytes — after block allocation (an inline GC above
		// may just have relocated this unit) and before the maps move.
		payload = f.stageUnit(unit, !forGC)
	}
	if err := f.arr.ProgramRun(wp.Block, wp.NextSlot*f.cfg.pagesPerUnit, f.cfg.pagesPerUnit, payload); err != nil {
		return fmt.Errorf("ftl: program: %w", err)
	}
	if forGC {
		ops.MergePrograms += f.cfg.pagesPerUnit
	} else {
		if hostPages > f.cfg.pagesPerUnit {
			hostPages = f.cfg.pagesPerUnit
		}
		ops.PagePrograms += hostPages
		ops.MergePrograms += f.cfg.pagesPerUnit - hostPages
	}
	f.st.Stats.PagesProgrammed += int64(f.cfg.pagesPerUnit)

	// Obsolete the old location, if any; the old block becomes (or gets
	// closer to being) a garbage-collection candidate.
	if old := f.st.FMap[unit]; old >= 0 {
		f.st.RMap[old] = -1
		oldBlock := int(old >> f.cfg.upbShift)
		f.st.Live[oldBlock]--
		f.pushVictim(oldBlock)
	}
	ps := f.slotOf(wp.Block, wp.NextSlot)
	f.st.FMap[unit] = ps
	f.st.RMap[ps] = unit
	f.st.Live[wp.Block]++
	wp.NextSlot++
	wp.LastUnit = unit
	f.st.Tick++
	wp.LastUse = f.st.Tick

	// Direct-map bookkeeping (Section 2.2: updates of bookkeeping
	// information are themselves flash writes).
	if !forGC {
		before := ops.MapFlushes
		f.book.touch(unit, ops)
		f.st.Stats.MapFlushes += int64(ops.MapFlushes - before)
	}
	return nil
}

// stageUnit assembles the payload the unit's relocation must carry in the
// staging buffer: the unit's current stored bytes (zeros where none), overlaid
// — on the host path only — with the pending WriteData bytes that fall inside
// the unit. GC relocations (overlayHost false) move content verbatim.
func (f *PageFTL) stageUnit(unit int64, overlayHost bool) []byte {
	unitData := f.staging[:f.cfg.UnitBytes]
	clear(unitData)
	pageSize := f.arr.Geometry().PageSize
	if old := f.st.FMap[unit]; old >= 0 {
		block, slot := f.blockSlot(old)
		for p := 0; p < f.cfg.pagesPerUnit; p++ {
			if data, err := f.arr.PageData(block, slot*f.cfg.pagesPerUnit+p); err == nil {
				copy(unitData[p*pageSize:(p+1)*pageSize], data)
			}
		}
	}
	if overlayHost && f.pending != nil {
		overlay(unitData, unit*f.cfg.unitBytes, f.pending, f.pendingOff)
	}
	return unitData
}

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the payload carried into the chips (and preserved across every later
// relocation).
func (f *PageFTL) WriteData(off int64, data []byte) (Ops, error) {
	if !f.StoresData() {
		return Ops{}, ErrNoDataStorage
	}
	f.pending, f.pendingOff = data, off
	ops, err := f.Write(off, int64(len(data)))
	f.pending = nil
	return ops, err
}

// ReadData implements the data plane: exactly Read(off, len(buf)) plus the
// observed bytes.
func (f *PageFTL) ReadData(off int64, buf []byte) (Ops, error) {
	if !f.StoresData() {
		return Ops{}, ErrNoDataStorage
	}
	ops, err := f.Read(off, int64(len(buf)))
	if err != nil {
		return ops, err
	}
	f.peekData(off, buf)
	return ops, nil
}

// peekData fills buf with the current bytes at off without any flash
// operation (zeros for unmapped or payload-free pages).
func (f *PageFTL) peekData(off int64, buf []byte) {
	clear(buf)
	pageSize := int64(f.arr.Geometry().PageSize)
	for covered := int64(0); covered < int64(len(buf)); {
		gp := (off + covered) / pageSize
		pageOff := (off + covered) % pageSize
		n := pageSize - pageOff
		if rest := int64(len(buf)) - covered; n > rest {
			n = rest
		}
		unit := gp * pageSize / f.cfg.unitBytes
		if ps := f.st.FMap[unit]; ps >= 0 {
			block, slot := f.blockSlot(ps)
			pageInUnit := int(gp % (f.cfg.unitBytes / pageSize))
			if data, err := f.arr.PageData(block, slot*f.cfg.pagesPerUnit+pageInUnit); err == nil {
				if int64(len(data)) > pageOff {
					copy(buf[covered:covered+n], data[pageOff:])
				}
			}
		}
		covered += n
	}
}

// pickWP returns the write point for a unit: a stream whose last unit is the
// immediate predecessor continues; otherwise the least-recently-used stream
// is reassigned.
func (f *PageFTL) pickWP(unit int64) *WritePoint {
	var lru *WritePoint
	for i := range f.st.WPs {
		wp := &f.st.WPs[i]
		if wp.LastUnit+1 == unit || wp.LastUnit == unit {
			return wp
		}
		if lru == nil || wp.LastUse < lru.LastUse {
			lru = wp
		}
	}
	return lru
}

// Write services a host write.
func (f *PageFTL) Write(off, length int64) (Ops, error) {
	var ops Ops
	err := f.write(off, length, &ops)
	return ops, err
}

func (f *PageFTL) write(off, length int64, ops *Ops) error {
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	f.st.Stats.HostWrites++
	sh := f.cfg.pageShift
	f.st.Stats.HostPagesWritten += (off+length-1)>>sh - off>>sh + 1
	journal := f.cfg.JournalMaxBytes > 0 && length <= f.cfg.JournalMaxBytes && length < f.cfg.unitBytes
	u0 := off >> f.cfg.unitShift
	u1 := (off + length - 1) >> f.cfg.unitShift
	for u := u0; u <= u1; u++ {
		us := u << f.cfg.unitShift
		ws := max64(off, us)
		we := min64(off+length, us+f.cfg.unitBytes)
		writtenPages := int((we-1)>>sh - ws>>sh + 1)
		// Pages of the unit not fully overwritten must be read first
		// (read-modify-write); this is the mechanism behind the
		// alignment penalty of the Alignment micro-benchmark.
		firstFull := (ws - us + 1<<sh - 1) >> sh
		lastFull := (we - us) >> sh
		fullyCovered := int(lastFull - firstFull)
		if fullyCovered < 0 {
			fullyCovered = 0
		}
		oldPages := f.cfg.pagesPerUnit - fullyCovered
		if !journal && oldPages > 0 && f.st.FMap[u] >= 0 {
			block, slot := f.blockSlot(f.st.FMap[u])
			if err := f.arr.ReadRun(block, slot*f.cfg.pagesPerUnit, oldPages); err != nil {
				return fmt.Errorf("ftl: rmw read: %w", err)
			}
			ops.MergeReads += oldPages
			f.st.Stats.PagesRead += int64(oldPages)
		}
		hostPages := writtenPages
		if f.st.FMap[u] < 0 {
			// Nothing to copy for an unmapped unit: the blank filler
			// pages stream like host data (the out-of-box cheapness of
			// Section 4.1).
			hostPages = f.cfg.pagesPerUnit
		}
		wp := f.pickWP(u)
		if err := f.appendUnit(wp, u, ops, false, hostPages); err != nil {
			return err
		}
		if journal && writtenPages < f.cfg.pagesPerUnit {
			// Journal path: charge only the pages actually written. The
			// relocation's filler pages were counted as merge copies
			// (mapped unit) or blank host programs (unmapped unit).
			if hostPages == f.cfg.pagesPerUnit {
				ops.PagePrograms -= f.cfg.pagesPerUnit - writtenPages
			} else {
				ops.MergePrograms -= f.cfg.pagesPerUnit - writtenPages
			}
		}
	}
	f.st.LastReadSlot = -2
	return nil
}

// Read services a host read.
func (f *PageFTL) Read(off, length int64) (Ops, error) {
	var ops Ops
	err := f.read(off, length, &ops)
	return ops, err
}

func (f *PageFTL) read(off, length int64, ops *Ops) error {
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	// Lingering reclamation (Figure 5): while the free pool is below target,
	// background collection steals time from reads. Nothing below changes
	// the pool or the candidates, so whether this read steals is known now;
	// a read that does counts its operations apart from ops, which may hold
	// earlier ones, because the steal prices this read alone.
	steal := f.cfg.AsyncReclaim && f.cfg.ReadSteal > 0 && f.free.Len() < f.cfg.ReserveBlocks && f.victims.Len() > 0
	var own Ops
	acc := ops
	if steal {
		acc = &own
	}
	f.st.Stats.HostReads++
	p0 := off >> f.cfg.pageShift
	p1 := (off + length - 1) >> f.cfg.pageShift
	first := true
	// One read run per mapping unit the request touches: a unit's pages are
	// physically consecutive.
	for gp := p0; gp <= p1; {
		unit := gp >> f.cfg.ppuShift
		pageInUnit := int(gp & int64(f.cfg.pagesPerUnit-1))
		n := int(min64(int64(f.cfg.pagesPerUnit-pageInUnit), p1-gp+1))
		gp += int64(n)
		ps := f.st.FMap[unit]
		if ps < 0 {
			// Unmapped: the device returns a deterministic pattern
			// straight from the controller.
			acc.RAMBytes += int64(n) << f.cfg.pageShift
			continue
		}
		block, slot := f.blockSlot(ps)
		page := slot*f.cfg.pagesPerUnit + pageInUnit
		if err := f.arr.ReadRun(block, page, n); err != nil {
			return fmt.Errorf("ftl: read: %w", err)
		}
		f.st.Stats.PagesRead += int64(n)
		physSlot := int64(block)<<(f.cfg.upbShift+f.cfg.ppuShift) + int64(page)
		chargeReadRun(acc, &f.st.LastReadSlot, physSlot, n, first, f.cfg.model.ReadSeek)
		first = false
	}
	if steal {
		stall := time.Duration(f.cfg.ReadSteal * float64(f.cfg.model.Cost(&own)))
		own.Stall += stall
		f.reclaimWithCredit(stall)
		ops.Add(own)
	}
	return nil
}

// Idle grants idle host time to background reclamation.
func (f *PageFTL) Idle(d time.Duration) {
	if !f.cfg.AsyncReclaim || d <= 0 {
		return
	}
	f.reclaimWithCredit(d)
}

func (f *PageFTL) reclaimWithCredit(d time.Duration) {
	f.st.IdleCredit += d
	// Cap the credit so an hour of idleness cannot fund unbounded future
	// work in zero time.
	maxCredit := f.cfg.model.ReclaimCost(f.cfg.unitsPerBlock*f.cfg.pagesPerUnit) * time.Duration(f.cfg.ReserveBlocks)
	if f.st.IdleCredit > maxCredit {
		f.st.IdleCredit = maxCredit
	}
	for f.free.Len() < f.cfg.ReserveBlocks && f.victims.Len() > 0 {
		// Price the cheapest victim without disturbing the queue.
		victim := f.victims.min() & keyBlockMask
		cost := f.cfg.model.ReclaimCost(int(f.st.Live[victim]) * f.cfg.pagesPerUnit)
		if f.st.IdleCredit < cost {
			break // not enough idle time
		}
		// Collect through the normal path so maps stay consistent; the
		// ops are absorbed by the idle credit.
		var bg Ops
		if err := f.collectOne(&bg); err != nil {
			break
		}
		f.st.IdleCredit -= cost
		f.st.Stats.AsyncReclaims++
	}
	// Idle time cannot be banked: once the pool is back at its target the
	// remaining credit evaporates (a device cannot save past idleness to
	// spend during a later burst).
	if f.free.Len() >= f.cfg.ReserveBlocks {
		f.st.IdleCredit = 0
	}
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

func min64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
