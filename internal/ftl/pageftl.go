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

type writePoint struct {
	block    int   // physical block being filled, -1 if none
	nextSlot int   // next unit slot within block
	lastUnit int64 // last logical unit appended (stream detection)
	lastUse  int64 // LRU tick
}

// PageFTL is a page-granularity (unit-granularity) mapped flash translation
// layer with greedy garbage collection: the design of the high-end SSDs in
// the paper's device set.
type PageFTL struct {
	arr   *Array
	cfg   PageConfig //uflint:shared — immutable config from the profile
	model CostModel  //uflint:shared — immutable cost tables

	unitBytes     int64 //uflint:shared — derived from the geometry
	pagesPerUnit  int   //uflint:shared — derived from the geometry
	unitsPerBlock int   //uflint:shared — derived from the geometry
	logicalUnits  int64 //uflint:shared — derived from the geometry

	fmap []int64 // logical unit -> physical slot (block*unitsPerBlock+slot), -1 unmapped
	rmap []int64 // physical slot -> logical unit, -1 free/obsolete
	live []int32 // physical block -> live unit count

	// free is the pre-erased pool; victims holds exactly the closed blocks
	// with at least one obsolete slot, keyed by their current live count.
	free    blockQueue
	victims blockQueue //uflint:scratch — derived from live, isOpen and free; Restore rebuilds it (rebuildVictims)
	isOpen  []bool     // block currently attached to a write point

	wps  []writePoint
	gcWP writePoint
	tick int64

	book mapBook

	idleCredit time.Duration
	stats      Stats

	lastReadSlot int64 // physical slot of previous page read, for pipelining

	// Data plane (flash built with data storage only): pending host bytes
	// of the WriteData call in flight, and the staging buffer holding one
	// unit's merged payload while it is relocated.
	dataMode   bool   //uflint:shared — wired at construction from the flash build
	pending    []byte //uflint:scratch — alive only within one WriteData call
	pendingOff int64  //uflint:scratch — alive only within one WriteData call
	unitData   []byte //uflint:scratch — relocation staging; contents dead between calls
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
	f := &PageFTL{
		arr:           arr,
		cfg:           cfg,
		model:         model,
		unitBytes:     int64(cfg.UnitBytes),
		pagesPerUnit:  cfg.UnitBytes / arr.Geometry().PageSize,
		unitsPerBlock: blockSize / cfg.UnitBytes,
		free:          newBlockQueue(arr.Blocks()),
		victims:       newBlockQueue(arr.Blocks()),
		lastReadSlot:  -2,
	}
	f.logicalUnits = (cfg.LogicalBytes + f.unitBytes - 1) / f.unitBytes
	f.fmap = make([]int64, f.logicalUnits)
	for i := range f.fmap {
		f.fmap[i] = -1
	}
	f.rmap = make([]int64, int64(arr.Blocks())*int64(f.unitsPerBlock))
	for i := range f.rmap {
		f.rmap[i] = -1
	}
	f.live = make([]int32, arr.Blocks())
	f.isOpen = make([]bool, arr.Blocks())
	for b := 0; b < arr.Blocks(); b++ {
		f.free.push(packKey(0, 0, b))
	}
	f.wps = make([]writePoint, cfg.WritePoints)
	for i := range f.wps {
		f.wps[i] = writePoint{block: -1, lastUnit: -2}
	}
	f.gcWP = writePoint{block: -1, lastUnit: -2}
	f.book = newMapBook(int64(cfg.MapUnitsPerPage), cfg.MapDirtyLimit, f.logicalUnits)
	if arr.StoresData() {
		f.dataMode = true
		f.unitData = make([]byte, cfg.UnitBytes)
	}
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
	if f.arr == nil {
		f.arr = &Array{}
	}
	f.arr.resetFrom(src.arr)
	f.cfg, f.model = src.cfg, src.model
	f.unitBytes, f.pagesPerUnit, f.unitsPerBlock, f.logicalUnits = src.unitBytes, src.pagesPerUnit, src.unitsPerBlock, src.logicalUnits
	f.fmap = append(f.fmap[:0], src.fmap...)
	f.rmap = append(f.rmap[:0], src.rmap...)
	f.live = append(f.live[:0], src.live...)
	f.isOpen = append(f.isOpen[:0], src.isOpen...)
	f.free.resetFrom(&src.free)
	f.victims.resetFrom(&src.victims)
	f.wps = append(f.wps[:0], src.wps...)
	f.gcWP, f.tick = src.gcWP, src.tick
	f.book.resetFrom(&src.book)
	f.idleCredit, f.stats, f.lastReadSlot = src.idleCredit, src.stats, src.lastReadSlot
	f.dataMode, f.pending, f.pendingOff = src.dataMode, nil, 0
	if len(f.unitData) != len(src.unitData) {
		f.unitData = make([]byte, len(src.unitData))
	}
	return true
}

// Stats returns a snapshot of the FTL counters.
func (f *PageFTL) Stats() Stats { return f.stats }

// FreeBlocks returns the current size of the pre-erased pool (for tests and
// the state/ablation experiments).
func (f *PageFTL) FreeBlocks() int { return f.free.Len() }

// MappedUnits returns how many logical units currently map to flash.
func (f *PageFTL) MappedUnits() int64 {
	var n int64
	for _, s := range f.fmap {
		if s >= 0 {
			n++
		}
	}
	return n
}

func (f *PageFTL) slotOf(block, slot int) int64 {
	return int64(block)*int64(f.unitsPerBlock) + int64(slot)
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
	f.isOpen[block] = true
	return block, nil
}

func (f *PageFTL) pushFree(block int) {
	ec, _ := f.arr.EraseCount(block)
	f.free.push(packKey(0, ec, block))
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
	f.stats.Merges++
	liveUnits := int(f.live[victim])
	if liveUnits == 0 {
		f.stats.SwitchMerges++
	}
	for slot := 0; slot < f.unitsPerBlock && liveUnits > 0; slot++ {
		ps := f.slotOf(victim, slot)
		unit := f.rmap[ps]
		if unit < 0 {
			continue
		}
		liveUnits--
		// Read the live unit's pages (merge path).
		if err := f.arr.ReadRun(victim, slot*f.pagesPerUnit, f.pagesPerUnit); err != nil {
			return fmt.Errorf("ftl: gc read: %w", err)
		}
		ops.MergeReads += f.pagesPerUnit
		f.stats.PagesRead += int64(f.pagesPerUnit)
		// Relocate it through the GC write point.
		if err := f.appendUnit(&f.gcWP, unit, ops, true, 0); err != nil {
			return err
		}
	}
	if err := f.arr.EraseBlock(victim); err != nil {
		return fmt.Errorf("ftl: gc erase: %w", err)
	}
	ops.Erases++
	f.stats.BlocksErased++
	f.live[victim] = 0
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
	if f.isOpen[block] || int(f.live[block]) >= f.unitsPerBlock {
		return
	}
	ec, _ := f.arr.EraseCount(block)
	f.victims.push(packKey(int(f.live[block]), ec, block))
}

// rebuildVictims derives the candidate queue from the rest of the state:
// every usable block that is neither open nor free and has an obsolete slot.
func (f *PageFTL) rebuildVictims() {
	f.victims.reset()
	for b := range f.live {
		if !f.free.contains(b) && !f.arr.IsBad(b) {
			f.pushVictim(b)
		}
	}
}

func (f *PageFTL) closeWP(wp *writePoint) {
	if wp.block < 0 {
		return
	}
	f.isOpen[wp.block] = false
	f.pushVictim(wp.block)
	wp.block = -1
	wp.nextSlot = 0
}

// appendUnit writes one unit's worth of pages at wp — one program run —
// updating the maps. hostPages of the unit carry host-supplied data (streamed,
// well pipelined); the rest are read-modify-write copies priced on the merge
// path.
//
//uflint:hotpath
func (f *PageFTL) appendUnit(wp *writePoint, unit int64, ops *Ops, forGC bool, hostPages int) error {
	if wp.block < 0 || wp.nextSlot >= f.unitsPerBlock {
		f.closeWP(wp)
		b, err := f.allocBlock(ops, forGC)
		if err != nil {
			return err
		}
		wp.block = b
		wp.nextSlot = 0
	}
	var payload []byte
	if f.dataMode {
		// Stage the unit's payload — current content overlaid with any
		// pending host bytes — after block allocation (an inline GC above
		// may just have relocated this unit) and before the maps move.
		f.stageUnit(unit, !forGC)
		payload = f.unitData
	}
	if err := f.arr.ProgramRun(wp.block, wp.nextSlot*f.pagesPerUnit, f.pagesPerUnit, payload); err != nil {
		return fmt.Errorf("ftl: program: %w", err)
	}
	if forGC {
		ops.MergePrograms += f.pagesPerUnit
	} else {
		if hostPages > f.pagesPerUnit {
			hostPages = f.pagesPerUnit
		}
		ops.PagePrograms += hostPages
		ops.MergePrograms += f.pagesPerUnit - hostPages
	}
	f.stats.PagesProgrammed += int64(f.pagesPerUnit)

	// Obsolete the old location, if any; the old block becomes (or gets
	// closer to being) a garbage-collection candidate.
	if old := f.fmap[unit]; old >= 0 {
		f.rmap[old] = -1
		oldBlock := int(old / int64(f.unitsPerBlock))
		f.live[oldBlock]--
		f.pushVictim(oldBlock)
	}
	ps := f.slotOf(wp.block, wp.nextSlot)
	f.fmap[unit] = ps
	f.rmap[ps] = unit
	f.live[wp.block]++
	wp.nextSlot++
	wp.lastUnit = unit
	f.tick++
	wp.lastUse = f.tick

	// Direct-map bookkeeping (Section 2.2: updates of bookkeeping
	// information are themselves flash writes).
	if !forGC {
		before := ops.MapFlushes
		f.book.touch(unit, ops)
		f.stats.MapFlushes += int64(ops.MapFlushes - before)
	}
	return nil
}

// stageUnit assembles the payload the unit's relocation must carry into
// f.unitData: the unit's current stored bytes (zeros where none), overlaid —
// on the host path only — with the pending WriteData bytes that fall inside
// the unit. GC relocations (overlayHost false) move content verbatim.
func (f *PageFTL) stageUnit(unit int64, overlayHost bool) {
	clear(f.unitData)
	pageSize := f.arr.Geometry().PageSize
	if old := f.fmap[unit]; old >= 0 {
		block := int(old / int64(f.unitsPerBlock))
		slot := int(old % int64(f.unitsPerBlock))
		for p := 0; p < f.pagesPerUnit; p++ {
			if data, err := f.arr.PageData(block, slot*f.pagesPerUnit+p); err == nil {
				copy(f.unitData[p*pageSize:(p+1)*pageSize], data)
			}
		}
	}
	if overlayHost && f.pending != nil {
		overlay(f.unitData, unit*f.unitBytes, f.pending, f.pendingOff)
	}
}

// StoresData reports whether the flash underneath retains payloads.
func (f *PageFTL) StoresData() bool { return f.dataMode }

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the payload carried into the chips (and preserved across every later
// relocation).
func (f *PageFTL) WriteData(off int64, data []byte) (Ops, error) {
	if !f.dataMode {
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
	if !f.dataMode {
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
		unit := gp * pageSize / f.unitBytes
		if ps := f.fmap[unit]; ps >= 0 {
			block := int(ps / int64(f.unitsPerBlock))
			slot := int(ps % int64(f.unitsPerBlock))
			pageInUnit := int(gp % (f.unitBytes / pageSize))
			if data, err := f.arr.PageData(block, slot*f.pagesPerUnit+pageInUnit); err == nil {
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
func (f *PageFTL) pickWP(unit int64) *writePoint {
	var lru *writePoint
	for i := range f.wps {
		wp := &f.wps[i]
		if wp.lastUnit+1 == unit || wp.lastUnit == unit {
			return wp
		}
		if lru == nil || wp.lastUse < lru.lastUse {
			lru = wp
		}
	}
	return lru
}

// Write services a host write.
func (f *PageFTL) Write(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.stats.HostWrites++
	pageSize := int64(f.arr.Geometry().PageSize)
	f.stats.HostPagesWritten += (off+length-1)/pageSize - off/pageSize + 1
	journal := f.cfg.JournalMaxBytes > 0 && length <= f.cfg.JournalMaxBytes && length < f.unitBytes
	u0 := off / f.unitBytes
	u1 := (off + length - 1) / f.unitBytes
	for u := u0; u <= u1; u++ {
		us := u * f.unitBytes
		ws := max64(off, us)
		we := min64(off+length, us+f.unitBytes)
		writtenPages := int((we-1)/pageSize - ws/pageSize + 1)
		// Pages of the unit not fully overwritten must be read first
		// (read-modify-write); this is the mechanism behind the
		// alignment penalty of the Alignment micro-benchmark.
		firstFull := (ws - us + pageSize - 1) / pageSize
		lastFull := (we - us) / pageSize
		fullyCovered := int(lastFull - firstFull)
		if fullyCovered < 0 {
			fullyCovered = 0
		}
		oldPages := f.pagesPerUnit - fullyCovered
		if !journal && oldPages > 0 && f.fmap[u] >= 0 {
			old := f.fmap[u]
			block := int(old / int64(f.unitsPerBlock))
			slot := int(old % int64(f.unitsPerBlock))
			if err := f.arr.ReadRun(block, slot*f.pagesPerUnit, oldPages); err != nil {
				return ops, fmt.Errorf("ftl: rmw read: %w", err)
			}
			ops.MergeReads += oldPages
			f.stats.PagesRead += int64(oldPages)
		}
		hostPages := writtenPages
		if f.fmap[u] < 0 {
			// Nothing to copy for an unmapped unit: the blank filler
			// pages stream like host data (the out-of-box cheapness of
			// Section 4.1).
			hostPages = f.pagesPerUnit
		}
		wp := f.pickWP(u)
		if err := f.appendUnit(wp, u, &ops, false, hostPages); err != nil {
			return ops, err
		}
		if journal && writtenPages < f.pagesPerUnit {
			// Journal path: charge only the pages actually written. The
			// relocation's filler pages were counted as merge copies
			// (mapped unit) or blank host programs (unmapped unit).
			if hostPages == f.pagesPerUnit {
				ops.PagePrograms -= f.pagesPerUnit - writtenPages
			} else {
				ops.MergePrograms -= f.pagesPerUnit - writtenPages
			}
		}
	}
	f.lastReadSlot = -2
	return ops, nil
}

// Read services a host read.
func (f *PageFTL) Read(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.stats.HostReads++
	pageSize := int64(f.arr.Geometry().PageSize)
	p0 := off / pageSize
	p1 := (off + length - 1) / pageSize
	first := true
	// One read run per mapping unit the request touches: a unit's pages are
	// physically consecutive.
	for gp := p0; gp <= p1; {
		unit := gp * pageSize / f.unitBytes
		pageInUnit := int(gp % int64(f.pagesPerUnit))
		n := int(min64(int64(f.pagesPerUnit-pageInUnit), p1-gp+1))
		gp += int64(n)
		ps := f.fmap[unit]
		if ps < 0 {
			// Unmapped: the device returns a deterministic pattern
			// straight from the controller.
			ops.RAMBytes += int64(n) * pageSize
			continue
		}
		block := int(ps / int64(f.unitsPerBlock))
		slot := int(ps % int64(f.unitsPerBlock))
		page := slot*f.pagesPerUnit + pageInUnit
		if err := f.arr.ReadRun(block, page, n); err != nil {
			return ops, fmt.Errorf("ftl: read: %w", err)
		}
		f.stats.PagesRead += int64(n)
		physSlot := int64(block)*int64(f.arr.Geometry().PagesPerBlock) + int64(page)
		chargeReadRun(&ops, &f.lastReadSlot, physSlot, n, first, f.model.ReadSeek)
		first = false
	}
	// Lingering reclamation (Figure 5): while the free pool is below
	// target, background collection steals time from reads.
	if f.cfg.AsyncReclaim && f.cfg.ReadSteal > 0 && f.free.Len() < f.cfg.ReserveBlocks && f.victims.Len() > 0 {
		stall := time.Duration(f.cfg.ReadSteal * float64(f.model.Cost(&ops)))
		ops.Stall += stall
		f.reclaimWithCredit(stall)
	}
	return ops, nil
}

// Idle grants idle host time to background reclamation.
func (f *PageFTL) Idle(d time.Duration) {
	if !f.cfg.AsyncReclaim || d <= 0 {
		return
	}
	f.reclaimWithCredit(d)
}

func (f *PageFTL) reclaimWithCredit(d time.Duration) {
	f.idleCredit += d
	// Cap the credit so an hour of idleness cannot fund unbounded future
	// work in zero time.
	maxCredit := f.model.ReclaimCost(f.unitsPerBlock*f.pagesPerUnit) * time.Duration(f.cfg.ReserveBlocks)
	if f.idleCredit > maxCredit {
		f.idleCredit = maxCredit
	}
	for f.free.Len() < f.cfg.ReserveBlocks && f.victims.Len() > 0 {
		// Price the cheapest victim without disturbing the queue.
		victim := f.victims.min() & keyBlockMask
		cost := f.model.ReclaimCost(int(f.live[victim]) * f.pagesPerUnit)
		if f.idleCredit < cost {
			break // not enough idle time
		}
		// Collect through the normal path so maps stay consistent; the
		// ops are absorbed by the idle credit.
		var bg Ops
		if err := f.collectOne(&bg); err != nil {
			break
		}
		f.idleCredit -= cost
		f.stats.AsyncReclaims++
	}
	// Idle time cannot be banked: once the pool is back at its target the
	// remaining credit evaporates (a device cannot save past idleness to
	// spend during a later burst).
	if f.free.Len() >= f.cfg.ReserveBlocks {
		f.idleCredit = 0
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
