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
	switch {
	case c.LogicalBytes <= 0:
		return fmt.Errorf("ftl: LogicalBytes must be positive")
	case c.LogBlocks < 1:
		return fmt.Errorf("ftl: LogBlocks must be >= 1")
	case c.MapDirtyLimit < 1 || c.MapUnitsPerPage < 1:
		return fmt.Errorf("ftl: map bookkeeping parameters must be >= 1")
	}
	blockSize := int64(a.Geometry().BlockSize())
	lbns := (c.LogicalBytes + blockSize - 1) / blockSize
	need := lbns + int64(c.LogBlocks) + 2
	if int64(a.Blocks()) < need {
		return fmt.Errorf("ftl: array has %d blocks, block FTL needs >= %d (logical %d + logs %d + 2)",
			a.Blocks(), need, lbns, c.LogBlocks)
	}
	return nil
}

// logEnt is one slot of the log table: the replacement block attached to
// logical block lbn, or a free slot.
type logEnt struct {
	lbn      int64 // logical block the slot serves, -1 when the slot is free
	pb       int   // physical replacement block
	nextPage int   // pages [0,nextPage) programmed, 1:1 with block offsets
	lastUse  int64
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
// lookups go by LBN, the eviction victim is chosen under the strict
// (lastUse, lbn) order, and snapshots list the entries sorted by LBN.
type BlockFTL struct {
	arr   *Array
	cfg   BlockConfig //uflint:shared — immutable config from the profile
	model CostModel   //uflint:shared — immutable cost tables

	blockBytes    int64 //uflint:shared — derived from the geometry
	pagesPerBlock int   //uflint:shared — derived from the geometry
	lbnCount      int64 //uflint:shared — derived from the geometry

	data []int32  // lbn -> physical block, -1 unmapped
	logs []logEnt // cfg.LogBlocks slots, free ones marked lbn -1
	free blockQueue
	tick int64

	book  mapBook
	stats Stats

	lastReadSlot int64

	// Data plane (flash built with data storage only): pending host bytes
	// of the WriteData call in flight, and a one-block staging buffer for
	// the payload of a program run.
	dataMode   bool   //uflint:shared — wired at construction from the flash build
	pending    []byte //uflint:scratch — alive only within one WriteData call
	pendingOff int64  //uflint:scratch — alive only within one WriteData call
	runBuf     []byte //uflint:scratch — staging buffer; contents dead between calls
}

// NewBlockFTL builds a block-mapped FTL over the array. The flash must be in
// its factory (all-erased) state.
func NewBlockFTL(arr *Array, cfg BlockConfig, model CostModel) (*BlockFTL, error) {
	if err := cfg.validate(arr); err != nil {
		return nil, err
	}
	geo := arr.Geometry()
	if err := checkKeyWidths(arr.Blocks(), arr.eraseLimit(), 0); err != nil {
		return nil, err
	}
	f := &BlockFTL{
		arr:           arr,
		cfg:           cfg,
		model:         model,
		blockBytes:    int64(geo.BlockSize()),
		pagesPerBlock: geo.PagesPerBlock,
		logs:          make([]logEnt, cfg.LogBlocks),
		free:          newBlockQueue(arr.Blocks()),
		lastReadSlot:  -2,
	}
	f.lbnCount = (cfg.LogicalBytes + f.blockBytes - 1) / f.blockBytes
	f.data = make([]int32, f.lbnCount)
	for i := range f.data {
		f.data[i] = -1
	}
	for i := range f.logs {
		f.logs[i].lbn = -1
	}
	for b := 0; b < arr.Blocks(); b++ {
		f.free.push(packKey(0, 0, b))
	}
	f.book = newMapBook(int64(cfg.MapUnitsPerPage), cfg.MapDirtyLimit, f.lbnCount)
	if arr.StoresData() {
		f.dataMode = true
		f.runBuf = make([]byte, geo.BlockSize())
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
	if f.arr == nil {
		f.arr = &Array{}
	}
	f.arr.resetFrom(src.arr)
	f.cfg, f.model = src.cfg, src.model
	f.blockBytes, f.pagesPerBlock, f.lbnCount = src.blockBytes, src.pagesPerBlock, src.lbnCount
	f.data = append(f.data[:0], src.data...)
	f.logs = append(f.logs[:0], src.logs...)
	f.free.resetFrom(&src.free)
	f.tick = src.tick
	f.book.resetFrom(&src.book)
	f.stats, f.lastReadSlot = src.stats, src.lastReadSlot
	f.dataMode, f.pending, f.pendingOff = src.dataMode, nil, 0
	if len(f.runBuf) != len(src.runBuf) {
		f.runBuf = make([]byte, len(src.runBuf))
	}
	return true
}

// Stats returns a snapshot of the FTL counters.
func (f *BlockFTL) Stats() Stats { return f.stats }

// ActiveLogs returns the number of replacement blocks currently in use.
func (f *BlockFTL) ActiveLogs() int {
	n := 0
	for i := range f.logs {
		if f.logs[i].lbn >= 0 {
			n++
		}
	}
	return n
}

// FreeBlocks returns the size of the erased pool.
func (f *BlockFTL) FreeBlocks() int { return f.free.Len() }

func (f *BlockFTL) allocFree() (int, error) {
	if f.free.Len() == 0 {
		return 0, ErrNoSpace
	}
	return int(f.free.pop() & keyBlockMask), nil
}

func (f *BlockFTL) pushFree(block int) {
	ec, _ := f.arr.EraseCount(block)
	f.free.push(packKey(0, ec, block))
}

// dataNext returns the programmed-prefix length of the lbn's data block
// (0 when unmapped).
func (f *BlockFTL) dataNext(lbn int64) int {
	pb := f.data[lbn]
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
func (f *BlockFTL) copyPages(lbn int64, log *logEnt, from, to int, ops *Ops) error {
	if to <= from {
		return nil
	}
	pb := int(f.data[lbn])
	held := min(to, f.dataNext(lbn)) - from // pages of the range the data block holds
	if held > 0 {
		if err := f.arr.ReadRun(pb, from, held); err != nil {
			return fmt.Errorf("ftl: merge read: %w", err)
		}
		ops.MergeReads += held
		f.stats.PagesRead += int64(held)
	}
	var payload []byte
	if f.dataMode {
		pageSize := f.arr.Geometry().PageSize
		payload = f.runBuf[:(to-from)*pageSize]
		clear(payload)
		for i := 0; i < held; i++ {
			data, _ := f.arr.PageData(pb, from+i) // moved verbatim
			copy(payload[i*pageSize:(i+1)*pageSize], data)
		}
	}
	if err := f.arr.ProgramRun(log.pb, from, to-from, payload); err != nil {
		return fmt.Errorf("ftl: merge program: %w", err)
	}
	ops.MergePrograms += to - from
	f.stats.PagesProgrammed += int64(to - from)
	log.nextPage = to
	return nil
}

// fullMerge completes a log block: the tail of its logical block's old data
// block is copied in, the old data block is erased and freed, the log becomes
// the data block and its slot is free again.
func (f *BlockFTL) fullMerge(log *logEnt, ops *Ops) error {
	lbn := log.lbn
	old := f.data[lbn]
	oldNext := f.dataNext(lbn)
	f.stats.Merges++
	if log.nextPage < oldNext {
		if err := f.copyPages(lbn, log, log.nextPage, oldNext, ops); err != nil {
			return err
		}
	} else if old < 0 || oldNext == 0 {
		f.stats.SwitchMerges++
	}
	if old >= 0 {
		if err := f.arr.EraseBlock(int(old)); err != nil {
			return fmt.Errorf("ftl: merge erase: %w", err)
		}
		ops.Erases++
		f.stats.BlocksErased++
		f.pushFree(int(old))
	}
	f.data[lbn] = int32(log.pb)
	log.lbn = -1
	return nil
}

// logOf returns the slot attached to lbn, nil when it has no log.
//
//uflint:hotpath
func (f *BlockFTL) logOf(lbn int64) *logEnt {
	for i := range f.logs {
		if f.logs[i].lbn == lbn {
			return &f.logs[i]
		}
	}
	return nil
}

// allocLog attaches a fresh replacement block to lbn in a free slot, first
// evicting (merging) the least-recently-used log when every slot is taken.
//
//uflint:hotpath
func (f *BlockFTL) allocLog(lbn int64, ops *Ops) (*logEnt, error) {
	var slot, victim *logEnt
	for i := range f.logs {
		e := &f.logs[i]
		if e.lbn < 0 {
			slot = e
			break
		}
		// Strict total order on (lastUse, lbn): the lbn tie-break keeps the
		// choice independent of slot order even if two logs ever share a
		// tick.
		if victim == nil || e.lastUse < victim.lastUse || (e.lastUse == victim.lastUse && e.lbn < victim.lbn) {
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
	f.tick++
	*slot = logEnt{lbn: lbn, pb: pb, lastUse: f.tick}
	return slot, nil
}

// pageRun resolves where the pages of lbn starting at p currently live — the
// log block, the data block, or nowhere (ok false) — and how many consecutive
// pages [p, p+n), n <= limit, share that location: each block holds a
// contiguous prefix of the logical block, the log's shadowing the data
// block's.
func (f *BlockFTL) pageRun(lbn int64, p, limit int) (block, n int, ok bool) {
	if log := f.logOf(lbn); log != nil && p < log.nextPage {
		return log.pb, min(limit, log.nextPage-p), true
	}
	if next := f.dataNext(lbn); p < next {
		return int(f.data[lbn]), min(limit, next-p), true
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
	pageSize := int64(f.arr.Geometry().PageSize)
	sPage := int(start / pageSize)
	ePage := int((end - 1) / pageSize)

	// Read-modify-write for partial edge pages that already exist.
	if start%pageSize != 0 {
		if pb, ok := f.pageLocation(lbn, sPage); ok {
			if err := f.arr.ReadPage(pb, sPage); err != nil {
				return err
			}
			ops.MergeReads++
			f.stats.PagesRead++
		}
	}
	if end%pageSize != 0 && ePage != sPage {
		if pb, ok := f.pageLocation(lbn, ePage); ok {
			if err := f.arr.ReadPage(pb, ePage); err != nil {
				return err
			}
			ops.MergeReads++
			f.stats.PagesRead++
		}
	}

	log := f.logOf(lbn)
	if log == nil {
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage < log.nextPage {
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
	if sPage > log.nextPage {
		// Gap: pull the skipped pages forward to keep the 1:1 layout.
		if err := f.copyPages(lbn, log, log.nextPage, sPage, ops); err != nil {
			return err
		}
	}
	n := ePage - sPage + 1
	var payload []byte
	if f.dataMode {
		// None of the run's pages is in the log yet, so staging them all
		// before the program reads what page-at-a-time staging would.
		payload = f.runBuf[:n*int(pageSize)]
		for i := 0; i < n; i++ {
			f.stagePage(lbn, sPage+i, payload[i*int(pageSize):(i+1)*int(pageSize)])
		}
	}
	if err := f.arr.ProgramRun(log.pb, sPage, n, payload); err != nil {
		return fmt.Errorf("ftl: log program: %w", err)
	}
	ops.PagePrograms += n
	f.stats.PagesProgrammed += int64(n)
	log.nextPage = ePage + 1
	f.tick++
	log.lastUse = f.tick

	if log.nextPage == f.pagesPerBlock {
		// Fully written log: switch it in (cheap merge).
		if err := f.fullMerge(log, ops); err != nil {
			return err
		}
	}
	before := ops.MapFlushes
	f.book.touch(lbn, ops)
	f.stats.MapFlushes += int64(ops.MapFlushes - before)
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
		pageStart := lbn*f.blockBytes + int64(p)*int64(len(buf))
		overlay(buf, pageStart, f.pending, f.pendingOff)
	}
}

// StoresData reports whether the flash underneath retains payloads.
func (f *BlockFTL) StoresData() bool { return f.dataMode }

// WriteData implements the data plane: exactly Write(off, len(data)) with
// the payload carried into the chips (and preserved across merges).
func (f *BlockFTL) WriteData(off int64, data []byte) (Ops, error) {
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
func (f *BlockFTL) ReadData(off int64, buf []byte) (Ops, error) {
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
		lbn := gp * pageSize / f.blockBytes
		pageInBlock := int(gp % (f.blockBytes / pageSize))
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
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.stats.HostWrites++
	pageSize := int64(f.arr.Geometry().PageSize)
	f.stats.HostPagesWritten += (off+length-1)/pageSize - off/pageSize + 1
	pos := off
	end := off + length
	for pos < end {
		lbn := pos / f.blockBytes
		segEnd := min64(end, (lbn+1)*f.blockBytes)
		if err := f.writeSegment(lbn, pos-lbn*f.blockBytes, segEnd-lbn*f.blockBytes, &ops); err != nil {
			return ops, err
		}
		pos = segEnd
	}
	f.lastReadSlot = -2
	return ops, nil
}

// Read services a host read.
func (f *BlockFTL) Read(off, length int64) (Ops, error) {
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
	// One read run per stretch of pages that share a physical block.
	for gp := p0; gp <= p1; {
		lbn := gp * pageSize / f.blockBytes
		pageInBlock := int(gp % int64(f.pagesPerBlock))
		pb, n, ok := f.pageRun(lbn, pageInBlock, int(min64(int64(f.pagesPerBlock-pageInBlock), p1-gp+1)))
		gp += int64(n)
		if !ok {
			ops.RAMBytes += int64(n) * pageSize
			continue
		}
		if err := f.arr.ReadRun(pb, pageInBlock, n); err != nil {
			return ops, fmt.Errorf("ftl: read: %w", err)
		}
		f.stats.PagesRead += int64(n)
		physSlot := int64(pb)*int64(f.pagesPerBlock) + int64(pageInBlock)
		chargeReadRun(&ops, &f.lastReadSlot, physSlot, n, first, f.model.ReadSeek)
		first = false
	}
	return ops, nil
}

// Idle is a no-op: the low-end devices this FTL models perform no
// asynchronous reclamation, which is why pauses do not help them (Table 3,
// Pause column).
func (f *BlockFTL) Idle(time.Duration) {}
