package ftl

import (
	"fmt"
	"time"
)

// BlockConfig configures a BlockFTL.
type BlockConfig struct {
	// LogicalBytes is the capacity exposed to the host. The array must
	// provide at least LogicalBytes/blockSize + LogBlocks + 2 blocks.
	LogicalBytes int64
	// LogBlocks is the number of replacement (log) blocks available
	// concurrently. Sequential streams beyond this count evict each
	// other's logs and pay a full merge per IO — the Partitioning cliff.
	LogBlocks int
	// MapDirtyLimit and MapUnitsPerPage model the on-flash map
	// bookkeeping exactly as in PageConfig (entries here are per logical
	// block, so one map page covers a large span).
	MapDirtyLimit   int
	MapUnitsPerPage int
}

func (c BlockConfig) validate(a *Array) error {
	geo := a.Geometry()
	switch {
	case !isPow2(geo.PageSize) || !isPow2(geo.PagesPerBlock):
		return fmt.Errorf("ftl: page size %d and pages per block %d must be powers of two", geo.PageSize, geo.PagesPerBlock)
	case c.LogicalBytes <= 0:
		return fmt.Errorf("ftl: LogicalBytes must be positive")
	case c.LogBlocks < 1:
		return fmt.Errorf("ftl: LogBlocks must be >= 1")
	case c.MapDirtyLimit < 1 || c.MapUnitsPerPage < 1:
		return fmt.Errorf("ftl: map bookkeeping parameters must be >= 1")
	}
	blockSize := int64(geo.BlockSize())
	lbns := (c.LogicalBytes + blockSize - 1) / blockSize
	need := lbns + int64(c.LogBlocks) + 2
	if int64(a.Blocks()) < need {
		return fmt.Errorf("ftl: array has %d blocks, block FTL needs >= %d (logical %d + logs %d + 2)",
			a.Blocks(), need, lbns, c.LogBlocks)
	}
	return nil
}

// LogSlot is one slot of the log table: the replacement block attached to
// logical block LBN, or a free slot.
type LogSlot struct {
	LBN      int64 // logical block the slot serves, -1 when the slot is free
	PB       int   // physical replacement block
	NextPage int   // pages [0,NextPage) programmed, 1:1 with block offsets
	LastUse  int64
}

// BlockFTLState is everything about a BlockFTL that changes as it runs, beside
// its free pool, its map book and the flash underneath, which keep their own.
// It is the struct the FTL runs on.
type BlockFTLState struct {
	Data []int32   // lbn -> physical block, -1 unmapped
	Logs []LogSlot // cfg.LogBlocks slots, a free one all zero but for LBN -1
	Tick int64

	Stats        Stats
	LastReadSlot int64
}

func (s *BlockFTLState) copyFrom(src *BlockFTLState) {
	s.Data = append(s.Data[:0], src.Data...)
	s.Logs = append(s.Logs[:0], src.Logs...)
	s.Tick, s.Stats, s.LastReadSlot = src.Tick, src.Stats, src.LastReadSlot
}

// audit states the FTL's invariant: whether a BlockFTL built as cfg, with
// the free pool free over flash in state arr (both already valid), could be
// in state s.
func (s *BlockFTLState) audit(cfg *blockConfig, free *QueueState, arr *ArrayState) error {
	blocks := arr.blocks()
	switch {
	case len(s.Data) != int(cfg.lbnCount) || len(s.Logs) != cfg.LogBlocks:
		return fmt.Errorf("ftl: state maps %d logical blocks through %d log slots, FTL %d through %d", len(s.Data), len(s.Logs), cfg.lbnCount, cfg.LogBlocks)
	case s.Tick < 0 || s.Stats.negative() || s.LastReadSlot < -2 || s.LastReadSlot >= int64(blocks*cfg.pagesPerBlock):
		return fmt.Errorf("ftl: state has a clock, counter or read position out of range (tick %d, last read %d, %+v)", s.Tick, s.LastReadSlot, s.Stats)
	}
	// Every usable block serves exactly once: free, as a data block or as a
	// log block.
	serves := make([]bool, blocks)
	claim := func(b int, as string) error {
		if b < 0 || b >= blocks || serves[b] || arr.block(b).Bad {
			return fmt.Errorf("ftl: %s block %d is outside the array, bad, or serves twice", as, b)
		}
		serves[b] = true
		return nil
	}
	for _, k := range free.Keys {
		serves[k&keyBlockMask] = true
	}
	for _, pb := range s.Data {
		if pb < -1 {
			return fmt.Errorf("ftl: a logical block maps to block %d", pb)
		}
		if pb >= 0 {
			if err := claim(int(pb), "data"); err != nil {
				return err
			}
		}
	}
	for i, l := range s.Logs {
		if l == (LogSlot{LBN: -1}) {
			continue
		}
		if l.LBN < 0 || l.LBN >= cfg.lbnCount || l.LastUse < 0 || l.LastUse > s.Tick {
			return fmt.Errorf("ftl: log slot %d serves logical block %d of %d since tick %d of %d", i, l.LBN, cfg.lbnCount, l.LastUse, s.Tick)
		}
		for _, other := range s.Logs[:i] {
			if other.LBN == l.LBN {
				return fmt.Errorf("ftl: two log slots serve logical block %d", l.LBN)
			}
		}
		if err := claim(l.PB, "log"); err != nil {
			return err
		}
		// Only the log's own appends program its block.
		if cursor := int(arr.block(l.PB).NextPage); l.NextPage != cursor {
			return fmt.Errorf("ftl: log slot %d stands at page %d of block %d, the chip at page %d", i, l.NextPage, l.PB, cursor)
		}
	}
	for b, ok := range serves {
		if !ok && !arr.block(b).Bad {
			return fmt.Errorf("ftl: block %d is neither free, data nor log", b)
		}
	}
	return nil
}

// blockConfig is what a BlockFTL is built as: the profile's configuration and
// cost tables plus what construction derives from them and the geometry.
type blockConfig struct {
	BlockConfig
	model CostModel

	blockBytes    int64
	pagesPerBlock int
	lbnCount      int64
	// Both sizes are powers of two (validate): log2 of the page size and of
	// the pages per block.
	pageShift, ppbShift uint
}

// BlockFTL is a block-granularity mapped flash translation layer with a
// bounded set of in-order replacement blocks: the design of the USB flash
// drives, SD cards and IDE modules in the paper's device set. Every logical
// block maps to at most one data block whose programmed pages form a
// contiguous prefix (a direct consequence of the chip's sequential-
// programming constraint), so out-of-order writes force full merges.
//
// The log table is a fixed array of cfg.LogBlocks slots (2–8 in every
// profile), searched linearly: attaching, evicting and looking up a log touch
// no map and allocate nothing. Which slot holds an entry is unobservable —
// lookups go by LBN and the eviction victim is chosen under the strict
// (LastUse, LBN) order.
type BlockFTL struct {
	flashBooks
	cfg blockConfig
	st  BlockFTLState
}

// NewBlockFTL builds a block-mapped FTL over the array. The flash must be in
// its factory (all-erased) state.
func NewBlockFTL(arr *Array, cfg BlockConfig, model CostModel) (*BlockFTL, error) {
	if err := cfg.validate(arr); err != nil {
		return nil, err
	}
	geo := arr.Geometry()
	if err := checkKeyWidths(arr.Blocks(), arr.eraseLimit()); err != nil {
		return nil, err
	}
	blockBytes := int64(geo.BlockSize())
	f := &BlockFTL{cfg: blockConfig{
		BlockConfig:   cfg,
		model:         model,
		blockBytes:    blockBytes,
		pagesPerBlock: geo.PagesPerBlock,
		lbnCount:      (cfg.LogicalBytes + blockBytes - 1) / blockBytes,
		pageShift:     log2(geo.PageSize),
		ppbShift:      log2(geo.PagesPerBlock),
	}}
	f.flashBooks = newFlashBooks(arr, cfg.MapUnitsPerPage, cfg.MapDirtyLimit, f.cfg.lbnCount)
	f.st.LastReadSlot = -2
	f.st.Data = make([]int32, f.cfg.lbnCount)
	for i := range f.st.Data {
		f.st.Data[i] = -1
	}
	f.st.Logs = make([]LogSlot, cfg.LogBlocks)
	for i := range f.st.Logs {
		f.st.Logs[i].LBN = -1
	}
	return f, nil
}

// Capacity returns the logical byte capacity.
func (f *BlockFTL) Capacity() int64 { return f.cfg.LogicalBytes }

// Clone returns a deep copy of the FTL and the flash array underneath.
func (f *BlockFTL) Clone() Translator {
	g := &BlockFTL{}
	g.resetFrom(f)
	return g
}

// resetFrom makes f a deep copy of t — a BlockFTL — and of the flash array
// underneath, reusing f's tables and chips; f may be a zero value.
func (f *BlockFTL) resetFrom(t Translator) bool {
	src, ok := t.(*BlockFTL)
	if !ok {
		return false
	}
	f.resetBooks(&src.flashBooks)
	f.cfg = src.cfg
	f.st.copyFrom(&src.st)
	return true
}

// Stats returns a snapshot of the FTL counters.
func (f *BlockFTL) Stats() Stats { return f.st.Stats }

// ActiveLogs returns the number of replacement blocks currently in use.
func (f *BlockFTL) ActiveLogs() int {
	n := 0
	for i := range f.st.Logs {
		if f.st.Logs[i].LBN >= 0 {
			n++
		}
	}
	return n
}

func (f *BlockFTL) allocFree() (int, error) {
	if f.free.Len() == 0 {
		return 0, ErrNoSpace
	}
	return int(f.free.pop() & keyBlockMask), nil
}

// dataNext returns the programmed-prefix length of the lbn's data block
// (0 when unmapped).
func (f *BlockFTL) dataNext(lbn int64) int {
	pb := f.st.Data[lbn]
	if pb < 0 {
		return 0
	}
	n, _ := f.arr.NextProgramPage(int(pb))
	return n
}

// copyPages copies pages [from,to) of the lbn's data block into the log
// block at the same offsets — one read run over the pages the data block
// holds, one program run over the whole range — programming blank filler for
// pages the data block never held (the chip's sequential constraint requires
// every page of the gap to be programmed).
//
//uflint:hotpath
func (f *BlockFTL) copyPages(lbn int64, log *LogSlot, from, to int, ops *Ops) error {
	if to <= from {
		return nil
	}
	pb := int(f.st.Data[lbn])
	held := min(to, f.dataNext(lbn)) - from // pages of the range the data block holds
	if held > 0 {
		if err := f.arr.ReadRun(pb, from, held); err != nil {
			return fmt.Errorf("ftl: merge read: %w", err)
		}
		ops.MergeReads += held
		f.st.Stats.PagesRead += int64(held)
	}
	var payload []byte
	if f.staging != nil {
		pageSize := f.arr.Geometry().PageSize
		payload = f.staging[:(to-from)*pageSize]
		clear(payload)
		for i := 0; i < held; i++ {
			data, _ := f.arr.PageData(pb, from+i) // moved verbatim
			copy(payload[i*pageSize:(i+1)*pageSize], data)
		}
	}
	if err := f.arr.ProgramRun(log.PB, from, to-from, payload); err != nil {
		return fmt.Errorf("ftl: merge program: %w", err)
	}
	ops.MergePrograms += to - from
	f.st.Stats.PagesProgrammed += int64(to - from)
	log.NextPage = to
	return nil
}

// fullMerge completes a log block: the tail of its logical block's old data
// block is copied in, the old data block is erased and freed, the log becomes
// the data block and its slot is free again.
func (f *BlockFTL) fullMerge(log *LogSlot, ops *Ops) error {
	lbn := log.LBN
	old := f.st.Data[lbn]
	oldNext := f.dataNext(lbn)
	f.st.Stats.Merges++
	if log.NextPage < oldNext {
		if err := f.copyPages(lbn, log, log.NextPage, oldNext, ops); err != nil {
			return err
		}
	} else if old < 0 || oldNext == 0 {
		f.st.Stats.SwitchMerges++
	}
	if old >= 0 {
		if err := f.arr.EraseBlock(int(old)); err != nil {
			return fmt.Errorf("ftl: merge erase: %w", err)
		}
		ops.Erases++
		f.st.Stats.BlocksErased++
		f.pushFree(int(old))
	}
	f.st.Data[lbn] = int32(log.PB)
	*log = LogSlot{LBN: -1}
	return nil
}

// logOf returns the slot attached to lbn, nil when it has no log.
//
//uflint:hotpath
func (f *BlockFTL) logOf(lbn int64) *LogSlot {
	for i := range f.st.Logs {
		if f.st.Logs[i].LBN == lbn {
			return &f.st.Logs[i]
		}
	}
	return nil
}

// allocLog attaches a fresh replacement block to lbn in a free slot, first
// evicting (merging) the least-recently-used log when every slot is taken.
//
//uflint:hotpath
func (f *BlockFTL) allocLog(lbn int64, ops *Ops) (*LogSlot, error) {
	var slot, victim *LogSlot
	for i := range f.st.Logs {
		e := &f.st.Logs[i]
		if e.LBN < 0 {
			slot = e
			break
		}
		// Strict total order on (lastUse, lbn): the lbn tie-break keeps the
		// choice independent of slot order even if two logs ever share a
		// tick.
		if victim == nil || e.LastUse < victim.LastUse || (e.LastUse == victim.LastUse && e.LBN < victim.LBN) {
			victim = e
		}
	}
	if slot == nil {
		if err := f.fullMerge(victim, ops); err != nil {
			return nil, err
		}
		slot = victim
	}
	pb, err := f.allocFree()
	if err != nil {
		return nil, err
	}
	f.st.Tick++
	*slot = LogSlot{LBN: lbn, PB: pb, LastUse: f.st.Tick}
	return slot, nil
}

// pageRun resolves where the pages of lbn starting at p currently live — the
// log block, the data block, or nowhere (ok false) — and how many consecutive
// pages [p, p+n), n <= limit, share that location: each block holds a
// contiguous prefix of the logical block, the log's shadowing the data
// block's.
func (f *BlockFTL) pageRun(lbn int64, p, limit int) (block, n int, ok bool) {
	if log := f.logOf(lbn); log != nil && p < log.NextPage {
		return log.PB, min(limit, log.NextPage-p), true
	}
	if next := f.dataNext(lbn); p < next {
		return int(f.st.Data[lbn]), min(limit, next-p), true
	}
	return 0, limit, false
}

// pageLocation resolves where page p of lbn currently lives.
func (f *BlockFTL) pageLocation(lbn int64, p int) (block int, ok bool) {
	block, _, ok = f.pageRun(lbn, p, 1)
	return block, ok
}

// writeSegment services the part of a write that falls inside one logical
// block: bytes [start,end) relative to the block.
func (f *BlockFTL) writeSegment(lbn, start, end int64, ops *Ops) error {
	pageSize := int64(1) << f.cfg.pageShift
	sPage := int(start >> f.cfg.pageShift)
	ePage := int((end - 1) >> f.cfg.pageShift)

	// Read-modify-write for partial edge pages that already exist.
	if start&(pageSize-1) != 0 {
		if pb, ok := f.pageLocation(lbn, sPage); ok {
			if err := f.arr.ReadPage(pb, sPage); err != nil {
				return err
			}
			ops.MergeReads++
			f.st.Stats.PagesRead++
		}
	}
	if end&(pageSize-1) != 0 && ePage != sPage {
		if pb, ok := f.pageLocation(lbn, ePage); ok {
			if err := f.arr.ReadPage(pb, ePage); err != nil {
				return err
			}
			ops.MergeReads++
			f.st.Stats.PagesRead++
		}
	}

	log := f.logOf(lbn)
	if log == nil {
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage < log.NextPage {
		// Out-of-order rewrite (in-place, reverse, revisiting random
		// write): the log only appends, so merge and start over.
		if err := f.fullMerge(log, ops); err != nil {
			return err
		}
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage > log.NextPage {
		// Gap: pull the skipped pages forward to keep the 1:1 layout.
		if err := f.copyPages(lbn, log, log.NextPage, sPage, ops); err != nil {
			return err
		}
	}
	n := ePage - sPage + 1
	var payload []byte
	if f.staging != nil {
		// None of the run's pages is in the log yet, so staging them all
		// before the program reads what page-at-a-time staging would.
		payload = f.staging[:n*int(pageSize)]
		for i := 0; i < n; i++ {
			f.stagePage(lbn, sPage+i, payload[i*int(pageSize):(i+1)*int(pageSize)])
		}
	}
	if err := f.arr.ProgramRun(log.PB, sPage, n, payload); err != nil {
		return fmt.Errorf("ftl: log program: %w", err)
	}
	ops.PagePrograms += n
	f.st.Stats.PagesProgrammed += int64(n)
	log.NextPage = ePage + 1
	f.st.Tick++
	log.LastUse = f.st.Tick

	if log.NextPage == f.cfg.pagesPerBlock {
		// Fully written log: switch it in (cheap merge).
		if err := f.fullMerge(log, ops); err != nil {
			return err
		}
	}
	before := ops.MapFlushes
	f.book.touch(lbn, ops)
	f.st.Stats.MapFlushes += int64(ops.MapFlushes - before)
	return nil
}

// stagePage assembles into buf (one page long) the payload for page p of lbn
// during a host write: the page's current content (zeros when none) overlaid
// with the pending WriteData bytes that fall inside the page. A plain Write
// on a data-enabled stack has no pending bytes, leaving the covered range as
// the page's old content — "unspecified", as documented on DataPlane.
func (f *BlockFTL) stagePage(lbn int64, p int, buf []byte) {
	clear(buf)
	if pb, ok := f.pageLocation(lbn, p); ok {
		if data, err := f.arr.PageData(pb, p); err == nil {
			copy(buf, data)
		}
	}
	if f.pending != nil {
		pageStart := lbn*f.cfg.blockBytes + int64(p)*int64(len(buf))
		overlay(buf, pageStart, f.pending, f.pendingOff)
	}
}

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the payload carried into the chips (and preserved across merges).
func (f *BlockFTL) WriteData(off int64, data []byte) (Ops, error) {
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
func (f *BlockFTL) ReadData(off int64, buf []byte) (Ops, error) {
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
// operation (zeros for unmapped pages).
func (f *BlockFTL) peekData(off int64, buf []byte) {
	clear(buf)
	pageSize := int64(f.arr.Geometry().PageSize)
	for covered := int64(0); covered < int64(len(buf)); {
		gp := (off + covered) / pageSize
		pageOff := (off + covered) % pageSize
		n := pageSize - pageOff
		if rest := int64(len(buf)) - covered; n > rest {
			n = rest
		}
		lbn := gp * pageSize / f.cfg.blockBytes
		pageInBlock := int(gp % (f.cfg.blockBytes / pageSize))
		if pb, ok := f.pageLocation(lbn, pageInBlock); ok {
			if data, err := f.arr.PageData(pb, pageInBlock); err == nil {
				if int64(len(data)) > pageOff {
					copy(buf[covered:covered+n], data[pageOff:])
				}
			}
		}
		covered += n
	}
}

// Write services a host write.
func (f *BlockFTL) Write(off, length int64) (Ops, error) {
	var ops Ops
	err := f.write(off, length, &ops)
	return ops, err
}

func (f *BlockFTL) write(off, length int64, ops *Ops) error {
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	f.st.Stats.HostWrites++
	sh := f.cfg.pageShift
	f.st.Stats.HostPagesWritten += (off+length-1)>>sh - off>>sh + 1
	blockShift := sh + f.cfg.ppbShift
	pos := off
	end := off + length
	for pos < end {
		lbn := pos >> blockShift
		base := lbn << blockShift
		segEnd := min(end, base+f.cfg.blockBytes)
		if err := f.writeSegment(lbn, pos-base, segEnd-base, ops); err != nil {
			return err
		}
		pos = segEnd
	}
	f.st.LastReadSlot = -2
	return nil
}

// Read services a host read.
func (f *BlockFTL) Read(off, length int64) (Ops, error) {
	var ops Ops
	err := f.read(off, length, &ops)
	return ops, err
}

func (f *BlockFTL) read(off, length int64, ops *Ops) error {
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return err
	}
	if length == 0 {
		return nil
	}
	f.st.Stats.HostReads++
	p0 := off >> f.cfg.pageShift
	p1 := (off + length - 1) >> f.cfg.pageShift
	first := true
	// One read run per stretch of pages that share a physical block.
	for gp := p0; gp <= p1; {
		lbn := gp >> f.cfg.ppbShift
		pageInBlock := int(gp & int64(f.cfg.pagesPerBlock-1))
		pb, n, ok := f.pageRun(lbn, pageInBlock, int(min(int64(f.cfg.pagesPerBlock-pageInBlock), p1-gp+1)))
		gp += int64(n)
		if !ok {
			ops.RAMBytes += int64(n) << f.cfg.pageShift
			continue
		}
		if err := f.arr.ReadRun(pb, pageInBlock, n); err != nil {
			return fmt.Errorf("ftl: read: %w", err)
		}
		f.st.Stats.PagesRead += int64(n)
		physSlot := int64(pb)<<f.cfg.ppbShift + int64(pageInBlock)
		chargeReadRun(ops, &f.st.LastReadSlot, physSlot, n, first, f.cfg.model.ReadSeek)
		first = false
	}
	return nil
}

// Idle is a no-op: the low-end devices this FTL models perform no
// asynchronous reclamation, which is why pauses do not help them (Table 3,
// Pause column).
func (f *BlockFTL) Idle(time.Duration) {}
