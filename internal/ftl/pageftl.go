package ftl

import (
	"fmt"
	"time"

	"uflip/internal/flash"
)

// Every page-mapped device has the same map book and journal. A map page
// covers mapUnitsPerPage logical blocks (16 MiB) and mapDirtyLimit dirty map
// pages stay in RAM before one is flushed (Section 2.2: bookkeeping updates
// are flash writes), so map pages reach flash only when writes scatter over
// more than 1 GiB. A host write of at most journalBytes goes through a fine-
// granularity journal and pays program cost only for the pages it writes,
// not a whole-block read-modify-write: the Figure 6 observation on the
// Memoright SSD that four 4 KB random writes take about as long as one 16 KB
// random write. (The block is still written out of place; only the timing of
// the sub-block path is short-circuited.)
const (
	mapUnitsPerPage = 128
	mapDirtyLimit   = 64
	journalBytes    = 16 * 1024
)

// PageConfig configures a PageFTL.
type PageConfig struct {
	// LogicalBytes is the capacity exposed to the host. It must leave at
	// least ReserveBlocks+WritePoints+2 blocks of raw flash headroom.
	LogicalBytes int64
	// WritePoints is the number of concurrent append streams the FTL
	// tracks. Each keeps the block it filled last open — no reclamation
	// candidate — until it writes again.
	WritePoints int
	// ReserveBlocks is the target size of the pre-erased free pool. A
	// full pool is what produces the cheap start-up phase of Figure 3;
	// once drained, reclamation runs inline and write cost starts
	// oscillating.
	ReserveBlocks int
	// ReadSteal is the fraction of a read's cost additionally stalled to
	// fund background reclamation while the pool is below target (the
	// lingering effect after a random-write batch, Figure 5). A positive
	// value also lets idle time between IOs refill the pool (the
	// Pause/Bursts effect of Table 3); 0 disables both.
	ReadSteal float64
	// GCBatch is how many obsolete blocks one inline reclamation episode
	// erases. Batching is what makes the running-phase cost oscillate
	// between cheap writes and expensive reclamation episodes (Figure 3)
	// instead of averaging out.
	GCBatch int
}

func (c PageConfig) validate(a *Array) error {
	switch {
	case c.LogicalBytes <= 0:
		return fmt.Errorf("ftl: LogicalBytes must be positive")
	case c.WritePoints < 1:
		return fmt.Errorf("ftl: WritePoints must be >= 1")
	case c.ReserveBlocks < 2:
		return fmt.Errorf("ftl: ReserveBlocks must be >= 2")
	case c.GCBatch < 1:
		return fmt.Errorf("ftl: GCBatch must be >= 1")
	}
	logicalBlocks := (c.LogicalBytes + BlockBytes - 1) / BlockBytes
	need := logicalBlocks + int64(c.ReserveBlocks+c.WritePoints+2)
	if int64(a.Blocks()) < need {
		return fmt.Errorf("ftl: array has %d blocks, page FTL needs >= %d (logical %d + reserve %d + write points %d + 2)",
			a.Blocks(), need, logicalBlocks, c.ReserveBlocks, c.WritePoints)
	}
	return nil
}

// WritePoint is one append stream.
type WritePoint struct {
	// Block is the physical block the stream last filled, -1 if none. A
	// filled block stays open, and so is no reclamation candidate, until the
	// stream writes again.
	Block    int
	LastUnit int64 // last logical block appended (stream detection)
	LastUse  int64 // LRU tick
}

// PageFTLState is everything about a PageFTL that changes as it runs, beside
// its map book and the flash underneath, which keep their own. It is the
// struct the FTL runs on.
type PageFTLState struct {
	FMap   []int64 // logical block -> physical block, -1 unmapped
	RMap   []int64 // physical block -> logical block, -1 free or obsolete
	IsOpen []bool  // block currently attached to a write point

	WPs  []WritePoint
	Tick int64

	IdleCredit   time.Duration
	Stats        Stats
	LastReadSlot int64 // physical page of the previous page read, for pipelining
}

func (s *PageFTLState) copyFrom(src *PageFTLState) {
	s.FMap = append(s.FMap[:0], src.FMap...)
	s.RMap = append(s.RMap[:0], src.RMap...)
	s.IsOpen = append(s.IsOpen[:0], src.IsOpen...)
	s.WPs = append(s.WPs[:0], src.WPs...)
	s.Tick = src.Tick
	s.IdleCredit, s.Stats, s.LastReadSlot = src.IdleCredit, src.Stats, src.LastReadSlot
}

// audit states the FTL's invariant: whether a PageFTL built as cfg, over
// flash in the valid state arr, could be in state s. Every usable block is
// then open, mapped, or closed and unmapped: a reclamation candidate once
// programmed, in the free pool while erased.
func (s *PageFTLState) audit(cfg *pageConfig, arr *flash.ChipState) error {
	blocks := len(arr.Blocks)
	switch {
	case len(s.FMap) != int(cfg.logicalBlocks) || len(s.RMap) != blocks || len(s.IsOpen) != blocks || len(s.WPs) != cfg.WritePoints:
		return fmt.Errorf("ftl: state tables (%d logical blocks, %d and %d blocks, %d write points) are not this FTL's size", len(s.FMap), len(s.RMap), len(s.IsOpen), len(s.WPs))
	case s.Tick < 0 || s.IdleCredit < 0 || s.Stats.negative() || s.LastReadSlot < -2 || s.LastReadSlot >= int64(blocks*PagesPerBlock):
		return fmt.Errorf("ftl: state has a clock, counter or read position out of range (tick %d, idle credit %v, last read %d, %+v)", s.Tick, s.IdleCredit, s.LastReadSlot, s.Stats)
	}
	// The maps are mutually inverse, and a mapped block is programmed in full.
	for lb, pb := range s.FMap {
		if pb < -1 || pb >= int64(blocks) || (pb >= 0 && s.RMap[pb] != int64(lb)) {
			return fmt.Errorf("ftl: logical block %d maps to block %d, which does not map back", lb, pb)
		}
	}
	for pb, lb := range s.RMap {
		if lb < -1 || lb >= cfg.logicalBlocks || (lb >= 0 && s.FMap[lb] != int64(pb)) {
			return fmt.Errorf("ftl: block %d holds logical block %d, which does not map back", pb, lb)
		}
		if cursor := int(arr.Blocks[pb].NextPage); lb >= 0 && cursor != PagesPerBlock {
			return fmt.Errorf("ftl: block %d holds logical block %d and is programmed to page %d of %d", pb, lb, cursor, PagesPerBlock)
		}
	}
	// A block is open exactly when one write point stands on it, having
	// filled it.
	standing := make([]int, blocks)
	for i, wp := range s.WPs {
		switch {
		case wp.LastUnit < -2 || wp.LastUnit >= cfg.logicalBlocks || wp.LastUse < 0 || wp.LastUse > s.Tick:
			return fmt.Errorf("ftl: write point %d has stream position (block %d, tick %d) out of range", i, wp.LastUnit, wp.LastUse)
		case wp.Block == -1:
		case wp.Block < 0 || wp.Block >= blocks || int(arr.Blocks[wp.Block].NextPage) != PagesPerBlock:
			return fmt.Errorf("ftl: write point %d stands on block %d, which it has not filled", i, wp.Block)
		default:
			standing[wp.Block]++
		}
	}
	for b, isOpen := range s.IsOpen {
		if isOpen != (standing[b] == 1) || standing[b] > 1 || (isOpen && arr.Blocks[b].Bad) {
			return fmt.Errorf("ftl: block %d is open=%v with %d write points on it (bad=%v)", b, isOpen, standing[b], arr.Blocks[b].Bad)
		}
	}
	return nil
}

// pageConfig is what a PageFTL is built as: the profile's configuration and
// cost tables plus the logical blocks the capacity spans.
type pageConfig struct {
	PageConfig
	model CostModel

	logicalBlocks int64
}

// PageFTL is a flash translation layer whose mapping unit is the flash block:
// every host write lands out of place in a fresh block, sub-block writes by
// read-modify-write or through the journal, and reclamation erases the
// blocks those writes left obsolete — the design of the high-end SSDs in the
// paper's device set.
type PageFTL struct {
	flashBooks
	cfg pageConfig
	st  PageFTLState

	// victims holds exactly the closed, unmapped, programmed, usable blocks
	// (the free pool's are erased), each under its key at the time it became
	// one: like the pool, a function of the state and the flash, which
	// rederive rebuilds.
	victims wearQueue
}

// NewPageFTL builds a page-mapped FTL over the array. The flash must be in
// its factory (all-erased) state.
func NewPageFTL(arr *Array, cfg PageConfig, model CostModel) (*PageFTL, error) {
	if err := cfg.validate(arr); err != nil {
		return nil, err
	}
	if err := checkKeyWidths(arr.Blocks(), arr.eraseLimit()); err != nil {
		return nil, err
	}
	f := &PageFTL{cfg: pageConfig{
		PageConfig:    cfg,
		model:         model,
		logicalBlocks: (cfg.LogicalBytes + BlockBytes - 1) / BlockBytes,
	}}
	f.flashBooks = flashBooks{arr: arr, book: newMapBook(mapUnitsPerPage, mapDirtyLimit, f.cfg.logicalBlocks)}
	f.st.LastReadSlot = -2
	f.st.FMap = make([]int64, f.cfg.logicalBlocks)
	for i := range f.st.FMap {
		f.st.FMap[i] = -1
	}
	f.st.RMap = make([]int64, arr.Blocks())
	for i := range f.st.RMap {
		f.st.RMap[i] = -1
	}
	f.st.IsOpen = make([]bool, arr.Blocks())
	f.st.WPs = make([]WritePoint, cfg.WritePoints)
	for i := range f.st.WPs {
		f.st.WPs[i] = WritePoint{Block: -1, LastUnit: -2}
	}
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
// underneath, reusing f's maps, queues and flash; f may be a zero value.
func (f *PageFTL) resetFrom(t Translator) bool {
	src, ok := t.(*PageFTL)
	if !ok {
		return false
	}
	f.resetBooks(&src.flashBooks)
	f.cfg = src.cfg
	f.st.copyFrom(&src.st)
	// src holds the candidates derived: copying them costs the candidates,
	// rederive every block of the array.
	f.victims.copyFrom(&src.victims)
	return true
}

// rederive rebuilds the free pool and the reclamation candidates from the
// state and the flash: every usable closed block that holds no data, in the
// pool while erased and a candidate once programmed.
func (f *PageFTL) rederive() {
	f.free.reset(len(f.st.RMap))
	f.victims.reset(len(f.st.RMap))
	for b, lb := range f.st.RMap {
		if lb >= 0 || f.st.IsOpen[b] || f.arr.IsBad(b) {
			continue
		}
		if next, _ := f.arr.NextProgramPage(b); next == 0 {
			f.pushFree(b)
		} else {
			f.pushVictim(b)
		}
	}
}

// checkDerived reports whether the free pool and the reclamation candidates
// are, in ascending order, the keys rederive builds from the state and the
// flash, and the map book's dirty set its ring's window.
func (f *PageFTL) checkDerived() error {
	want := *f
	want.free, want.victims = wearQueue{}, wearQueue{}
	want.rederive()
	if err := f.free.checkDerived("page FTL's free pool", &want.free); err != nil {
		return err
	}
	if err := f.victims.checkDerived("page FTL's reclamation candidates", &want.victims); err != nil {
		return err
	}
	return f.book.checkDerived()
}

// Stats returns a snapshot of the FTL counters.
func (f *PageFTL) Stats() Stats { return f.st.Stats }

// allocBlock pops a pre-erased block. When the pool runs low it reclaims
// inline — a batch of GCBatch obsolete blocks — which is what makes random-
// write cost oscillate once the start-up reserve is drained.
func (f *PageFTL) allocBlock(ops *Ops) (int, error) {
	for f.free.Len() < 2 {
		for i := 0; i < f.cfg.GCBatch && f.victims.Len() > 0; i++ {
			if err := f.collectOne(ops); err != nil {
				return 0, err
			}
		}
		if f.victims.Len() == 0 && f.free.Len() < 2 {
			return 0, ErrNoSpace
		}
	}
	block := int(f.free.pop() & keyBlockMask)
	f.st.IsOpen[block] = true
	return block, nil
}

// collectOne erases the least-worn obsolete block and returns it to the free
// pool. Its operations are charged to ops (inline collection); background
// collection passes a throwaway ops.
func (f *PageFTL) collectOne(ops *Ops) error {
	victim := int(f.victims.pop() & keyBlockMask)
	if err := f.arr.EraseBlock(victim); err != nil {
		return fmt.Errorf("ftl: gc erase: %w", err)
	}
	// Every collection is a switch merge: the block holds no live data.
	f.st.Stats.Merges++
	f.st.Stats.SwitchMerges++
	ops.Erases++
	f.st.Stats.BlocksErased++
	f.pushFree(victim)
	return nil
}

// pushVictim queues a block as a reclamation candidate once it is both closed
// and obsolete, whichever comes last. Open blocks and blocks holding data are
// never candidates.
func (f *PageFTL) pushVictim(block int) {
	if f.st.IsOpen[block] || f.st.RMap[block] >= 0 {
		return
	}
	ec, _ := f.arr.EraseCount(block)
	f.victims.push(packKey(ec, block))
}

// appendBlock writes logical block lb out of place — one program run of a
// whole block at the next fresh block of wp — updating the maps. hostPages of
// the block carry host-supplied data (streamed, well pipelined); the rest are
// read-modify-write copies priced on the merge path.
//
//uflint:hotpath
func (f *PageFTL) appendBlock(wp *WritePoint, lb int64, ops *Ops, hostPages int) error {
	// The block the stream filled last closes only now, so that the open
	// blocks decide when inline reclamation fires.
	if wp.Block >= 0 {
		f.st.IsOpen[wp.Block] = false
		f.pushVictim(wp.Block)
		wp.Block = -1
	}
	b, err := f.allocBlock(ops)
	if err != nil {
		return err
	}
	wp.Block = b
	if err := f.arr.ProgramRun(b, 0, PagesPerBlock); err != nil {
		return fmt.Errorf("ftl: program: %w", err)
	}
	ops.PagePrograms += hostPages
	ops.MergePrograms += PagesPerBlock - hostPages
	f.st.Stats.PagesProgrammed += PagesPerBlock

	// Obsolete the old location, if any: it becomes a reclamation candidate
	// once closed.
	if old := f.st.FMap[lb]; old >= 0 {
		f.st.RMap[old] = -1
		f.pushVictim(int(old))
	}
	f.st.FMap[lb] = int64(b)
	f.st.RMap[b] = lb
	wp.LastUnit = lb
	f.st.Tick++
	wp.LastUse = f.st.Tick

	// Direct-map bookkeeping (Section 2.2: updates of bookkeeping
	// information are themselves flash writes).
	before := ops.MapFlushes
	f.book.touch(lb, ops)
	f.st.Stats.MapFlushes += int64(ops.MapFlushes - before)
	return nil
}

// pickWP returns the write point for logical block lb: a stream whose last
// block is the immediate predecessor continues; otherwise the least-recently-
// used stream is reassigned.
func (f *PageFTL) pickWP(lb int64) *WritePoint {
	var lru *WritePoint
	for i := range f.st.WPs {
		wp := &f.st.WPs[i]
		if wp.LastUnit+1 == lb || wp.LastUnit == lb {
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
	f.st.Stats.HostPagesWritten += (off+length-1)/PageBytes - off/PageBytes + 1
	journal := length <= journalBytes
	for lb := off / BlockBytes; lb <= (off+length-1)/BlockBytes; lb++ {
		bs := lb * BlockBytes
		ws := max(off, bs)
		we := min(off+length, bs+BlockBytes)
		writtenPages := int((we-1)/PageBytes - ws/PageBytes + 1)
		// Pages of the block not fully overwritten must be read first
		// (read-modify-write); this is the mechanism behind the alignment
		// penalty of the Alignment micro-benchmark.
		firstFull := (ws - bs + PageBytes - 1) / PageBytes
		lastFull := (we - bs) / PageBytes
		oldPages := PagesPerBlock - int(max(lastFull-firstFull, 0))
		mapped := f.st.FMap[lb]
		if !journal && oldPages > 0 && mapped >= 0 {
			if err := f.arr.ReadRun(int(mapped), 0, oldPages); err != nil {
				return fmt.Errorf("ftl: rmw read: %w", err)
			}
			ops.MergeReads += oldPages
			f.st.Stats.PagesRead += int64(oldPages)
		}
		hostPages := writtenPages
		if mapped < 0 {
			// Nothing to copy for an unmapped block: the blank filler pages
			// stream like host data (the out-of-box cheapness of Section
			// 4.1).
			hostPages = PagesPerBlock
		}
		if err := f.appendBlock(f.pickWP(lb), lb, ops, hostPages); err != nil {
			return err
		}
		if journal && writtenPages < PagesPerBlock {
			// Journal path: charge only the pages actually written. The
			// filler pages were counted as merge copies (mapped block) or
			// blank host programs (unmapped block).
			if hostPages == PagesPerBlock {
				ops.PagePrograms -= PagesPerBlock - writtenPages
			} else {
				ops.MergePrograms -= PagesPerBlock - writtenPages
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
	f.st.Stats.HostReads++
	// Lingering reclamation (Figure 5): while the free pool is below target,
	// background collection steals time from reads. Nothing below changes
	// the pool or the candidates, so whether this read steals is known now.
	if f.cfg.ReadSteal > 0 && f.free.Len() < f.cfg.ReserveBlocks && f.victims.Len() > 0 {
		return f.readStealing(off, length, ops)
	}
	return f.readRuns(off, length, ops)
}

// readStealing is a read that lingering reclamation steals time from. It
// counts its operations apart from ops, which may hold earlier ones, because
// the steal prices this read alone.
func (f *PageFTL) readStealing(off, length int64, ops *Ops) error {
	var own Ops
	if err := f.readRuns(off, length, &own); err != nil {
		return err
	}
	stall := time.Duration(f.cfg.ReadSteal * float64(f.cfg.model.Cost(&own)))
	own.Stall += stall
	f.reclaimWithCredit(stall)
	ops.Add(own)
	return nil
}

// readRuns adds to ops one read run per logical block the request touches:
// a block's pages are physically consecutive.
func (f *PageFTL) readRuns(off, length int64, ops *Ops) error {
	p1 := (off + length - 1) / PageBytes
	first := true
	for gp := off / PageBytes; gp <= p1; {
		lb := gp / PagesPerBlock
		page := int(gp % PagesPerBlock)
		n := int(min(int64(PagesPerBlock-page), p1-gp+1))
		gp += int64(n)
		pb := f.st.FMap[lb]
		if pb < 0 {
			// Unmapped: the device returns a deterministic pattern
			// straight from the controller.
			ops.RAMBytes += int64(n) * PageBytes
			continue
		}
		if err := f.arr.ReadRun(int(pb), page, n); err != nil {
			return fmt.Errorf("ftl: read: %w", err)
		}
		f.st.Stats.PagesRead += int64(n)
		chargeReadRun(ops, &f.st.LastReadSlot, pb*PagesPerBlock+int64(page), n, first, f.cfg.model.ReadSeek)
		first = false
	}
	return nil
}

// Idle grants idle host time to background reclamation.
func (f *PageFTL) Idle(d time.Duration) {
	if f.cfg.ReadSteal <= 0 || d <= 0 {
		return
	}
	f.reclaimWithCredit(d)
}

func (f *PageFTL) reclaimWithCredit(d time.Duration) {
	f.st.IdleCredit += d
	// Cap the credit so an hour of idleness cannot fund unbounded future
	// work in zero time.
	maxCredit := f.cfg.model.ReclaimCost(PagesPerBlock) * time.Duration(f.cfg.ReserveBlocks)
	if f.st.IdleCredit > maxCredit {
		f.st.IdleCredit = maxCredit
	}
	// A candidate holds no live data: reclaiming it is one erase. The ops
	// are absorbed by the idle credit.
	cost := f.cfg.model.ReclaimCost(0)
	var bg Ops
	for f.free.Len() < f.cfg.ReserveBlocks && f.victims.Len() > 0 && f.st.IdleCredit >= cost {
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
