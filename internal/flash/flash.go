// Package flash models NAND flash chips at the level of detail Section 2.1 of
// the uFLIP paper describes: independent arrays of cells (flash blocks) made
// of rows (flash pages), read/program/erase as the basic operations, pages
// programmed sequentially within a block to limit write errors, erase only at
// block granularity, a bounded erase budget per block (smaller for MLC than
// SLC), wear tracking and bad-block marking. Plane parallelism and the page
// register are left to the FTL's cost model.
//
// Sequential programming plus block-granular erase mean a page is programmed
// exactly when it lies below its block's program cursor, so the cursor is the
// only page state the chip keeps, and programming or reading a run of
// consecutive pages is one validation plus cursor arithmetic (ProgramRun,
// ReadRun). The single-page operations are the one-page case of the run
// operations.
//
// A chip takes any Geometry; the devices all build theirs from the one flash
// geometry package ftl declares (2 KiB pages, 64 pages to a block).
//
// The chip stores no payload bytes. uFLIP measures response times, and no
// time the simulator reports depends on what a page holds — only on which
// pages are programmed, which the cursors say — while a 32 GB device's
// payloads would need 32 GB of RAM.
package flash

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// CellType distinguishes single- and multi-level cell chips (Section 2.1).
type CellType int

const (
	// SLC stores one bit per cell: faster, ~10^6 erases per block.
	SLC CellType = iota
	// MLC stores two or more bits per cell: denser, slower, ~10^5 erases.
	MLC
)

// String returns "SLC" or "MLC".
func (c CellType) String() string {
	if c == SLC {
		return "SLC"
	}
	return "MLC"
}

// EraseLimit returns the nominal erase budget per block for the cell type.
func (c CellType) EraseLimit() int {
	if c == SLC {
		return 1_000_000
	}
	return 100_000
}

// Geometry describes the physical layout of one chip.
type Geometry struct {
	PageSize      int // data bytes per flash page
	OOBSize       int // out-of-band bytes per page for ECC/bookkeeping
	PagesPerBlock int
	Blocks        int // total flash blocks on the chip (across planes)
	Planes        int // 1 or 2; with 2, even blocks are plane 0, odd plane 1
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("flash: PageSize %d must be positive", g.PageSize)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock %d must be positive", g.PagesPerBlock)
	case g.PagesPerBlock > math.MaxInt16:
		return fmt.Errorf("flash: PagesPerBlock %d exceeds the %d the block cursor can hold", g.PagesPerBlock, math.MaxInt16)
	case g.Blocks <= 0:
		return fmt.Errorf("flash: Blocks %d must be positive", g.Blocks)
	case g.Planes != 1 && g.Planes != 2:
		return fmt.Errorf("flash: Planes %d must be 1 or 2", g.Planes)
	case g.OOBSize < 0:
		return fmt.Errorf("flash: OOBSize %d must be non-negative", g.OOBSize)
	}
	return nil
}

// BlockSize returns the data capacity of one flash block in bytes.
func (g Geometry) BlockSize() int { return g.PageSize * g.PagesPerBlock }

// Capacity returns the data capacity of the chip in bytes.
func (g Geometry) Capacity() int64 { return int64(g.BlockSize()) * int64(g.Blocks) }

// Timing holds the latencies of the three basic chip operations plus the
// per-byte transfer cost between the page register and the controller.
type Timing struct {
	ReadPage    time.Duration // cell array -> page register
	ProgramPage time.Duration // page register -> cell array
	EraseBlock  time.Duration
	PerByte     time.Duration // register <-> controller transfer, per byte
}

// TypicalTiming returns datasheet-representative timings for the cell type
// (2008-era chips: SLC ~25us read, ~200us program, ~1.5ms erase; MLC ~50us
// read, ~800us program, ~3ms erase; ~25ns/byte transfer).
func TypicalTiming(c CellType) Timing {
	if c == SLC {
		return Timing{
			ReadPage:    25 * time.Microsecond,
			ProgramPage: 200 * time.Microsecond,
			EraseBlock:  1500 * time.Microsecond,
			PerByte:     25 * time.Nanosecond,
		}
	}
	return Timing{
		ReadPage:    50 * time.Microsecond,
		ProgramPage: 800 * time.Microsecond,
		EraseBlock:  3 * time.Millisecond,
		PerByte:     25 * time.Nanosecond,
	}
}

// Errors returned by chip operations.
var (
	ErrBadBlock   = errors.New("flash: block is marked bad")
	ErrWornOut    = errors.New("flash: block exceeded its erase budget")
	ErrNotErased  = errors.New("flash: programming a page that is not erased")
	ErrOutOfOrder = errors.New("flash: pages must be programmed sequentially within a block")
	ErrOutOfRange = errors.New("flash: address out of range")
	ErrReadErased = errors.New("flash: reading an erased page")
)

// BlockState is everything the chip tracks per block, packed into 8 bytes so
// a chip copy is one small bulk copy. Pages [0,NextPage) are programmed and
// the rest erased; the erase budget (at most 10^6) fits an int32 and
// Geometry.Validate bounds PagesPerBlock to an int16.
type BlockState struct {
	EraseCount int32
	NextPage   int16 // program cursor: the only page that may be programmed next
	Bad        bool
}

// Stats aggregates chip-level counters, useful for wear-leveling tests and
// for verifying that the FTL issues the operations the cost model charges.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
}

// ChipState is everything about a chip that changes as it runs, and the struct
// the chip runs on: a clone, a reset, a snapshot and a restore are all CopyFrom
// on it, and the state store serializes it as it stands.
type ChipState struct {
	Blocks []BlockState
	Stats  Stats
}

// CopyFrom makes s a deep copy of src, reusing s's buffers; s may be a zero
// value. It is the one traversal of the chip's state.
func (s *ChipState) CopyFrom(src *ChipState) {
	s.Blocks = append(s.Blocks[:0], src.Blocks...)
	s.Stats = src.Stats
}

// audit states the chip's invariant: whether a chip built as cfg could be
// in state s.
func (s *ChipState) audit(cfg *chipConfig) error {
	geo := cfg.geo
	switch {
	case len(s.Blocks) != geo.Blocks:
		return fmt.Errorf("flash: state has %d blocks, chip %d", len(s.Blocks), geo.Blocks)
	case s.Stats.Reads < 0 || s.Stats.Programs < 0 || s.Stats.Erases < 0:
		return fmt.Errorf("flash: state has negative operation counters %+v", s.Stats)
	}
	for i, b := range s.Blocks {
		if b.NextPage < 0 || int(b.NextPage) > geo.PagesPerBlock {
			return fmt.Errorf("flash: block %d has program cursor %d outside [0,%d]", i, b.NextPage, geo.PagesPerBlock)
		}
		// A block is marked bad by the erase that exceeds its budget.
		if limit := cfg.cell.EraseLimit(); b.EraseCount < 0 || int(b.EraseCount) > limit+1 || (int(b.EraseCount) > limit && !b.Bad) {
			return fmt.Errorf("flash: block %d has erase count %d outside its budget of %d", i, b.EraseCount, limit)
		}
	}
	return nil
}

// chipConfig is what a chip is built as: fixed at construction, copied whole
// by ResetFrom and only read afterwards.
type chipConfig struct {
	geo    Geometry
	timing Timing
	cell   CellType
	// transfer is the register <-> controller time for one page plus OOB,
	// precomputed from the timing so the per-IO paths do not multiply.
	transfer time.Duration
}

// Chip is one simulated NAND flash chip. It is not safe for concurrent use;
// the device serializes access, which also reflects how a single chip behaves
// behind its controller.
type Chip struct {
	cfg chipConfig
	st  ChipState
}

// NewChip builds a chip with the given geometry and cell type, fully erased.
func NewChip(geo Geometry, cell CellType) (*Chip, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		cfg: chipConfig{geo: geo, timing: TypicalTiming(cell), cell: cell},
		st:  ChipState{Blocks: make([]BlockState, geo.Blocks)},
	}
	c.cfg.transfer = time.Duration(geo.PageSize+geo.OOBSize) * c.cfg.timing.PerByte
	return c, nil
}

// ResetFrom makes c a deep copy of src, reusing c's buffers; c may be a zero
// value. A shard device recycled by the engine is reset from the enforced
// master this way instead of being cloned again.
func (c *Chip) ResetFrom(src *Chip) {
	c.cfg = src.cfg
	c.st.CopyFrom(&src.st)
}

// State returns the struct the chip runs on — not a copy. It is how the layers
// above audit themselves against the flash, capture it and, by CopyFrom of a
// state that passed Check, restore it; otherwise callers only read it.
func (c *Chip) State() *ChipState { return &c.st }

// Check reports why s is not a state a chip of this build could be in, nil
// when it is one.
func (c *Chip) Check(s *ChipState) error {
	if s == nil {
		return fmt.Errorf("flash: nil chip state")
	}
	return s.audit(&c.cfg)
}

// Audit checks the chip's invariant on its live state.
func (c *Chip) Audit() error { return c.Check(&c.st) }

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.cfg.geo }

// Cell returns the chip's cell type.
func (c *Chip) Cell() CellType { return c.cfg.cell }

// EraseCount returns the number of erase cycles block has endured.
func (c *Chip) EraseCount(block int) (int, error) {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return 0, ErrOutOfRange
	}
	return int(c.st.Blocks[block].EraseCount), nil
}

// IsBad reports whether a block has been marked bad.
func (c *Chip) IsBad(block int) bool {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return true
	}
	return c.st.Blocks[block].Bad
}

// NextProgramPage returns the next page index that may be programmed in the
// block under the sequential-programming constraint, or PagesPerBlock if the
// block is full.
func (c *Chip) NextProgramPage(block int) (int, error) {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return 0, ErrOutOfRange
	}
	return int(c.st.Blocks[block].NextPage), nil
}

func (c *Chip) checkAddr(block, page int) error {
	if block < 0 || block >= c.cfg.geo.Blocks || page < 0 || page >= c.cfg.geo.PagesPerBlock {
		return ErrOutOfRange
	}
	return nil
}

// ReadPage reads one page and transfers it to the controller, returning the
// operation's duration.
func (c *Chip) ReadPage(block, page int) (time.Duration, error) {
	return c.ReadRun(block, page, 1)
}

// ReadRun reads the n >= 1 consecutive pages [first, first+n) of a block,
// returning their total duration. It validates once and either reads the
// whole run or fails without side effects, with the error the first
// offending page would have produced; on success the stats are exactly as
// after n single-page reads.
//
//uflint:hotpath
func (c *Chip) ReadRun(block, first, n int) (time.Duration, error) {
	if c.checkAddr(block, first) != nil || n < 1 {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	if cursor := int(b.NextPage); n > cursor-first {
		// The first page at or past the cursor is erased — unless the
		// cursor is the end of the block, where it is no page at all.
		if cursor < c.cfg.geo.PagesPerBlock {
			return 0, ErrReadErased
		}
		return 0, ErrOutOfRange
	}
	c.st.Stats.Reads += int64(n)
	return time.Duration(n) * (c.cfg.transfer + c.cfg.timing.ReadPage), nil
}

// ProgramPage programs one page, enforcing that the page is erased and that
// pages within a block are programmed in order. The payload is ignored: the
// chip stores no bytes (see the package comment).
func (c *Chip) ProgramPage(block, page int, _ []byte) (time.Duration, error) {
	return c.ProgramRun(block, page, 1)
}

// ProgramRun programs the n >= 1 consecutive pages [first, first+n) of a
// block, which must start at the block's program cursor, returning their total
// duration. It validates once and either programs the whole run or
// fails without side effects, with the error the first offending page would
// have produced; on success the stats are exactly as after n single-page
// programs.
//
//uflint:hotpath
func (c *Chip) ProgramRun(block, first, n int) (time.Duration, error) {
	if c.checkAddr(block, first) != nil || n < 1 {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	switch cursor := int(b.NextPage); {
	case b.Bad:
		return 0, ErrBadBlock
	case first < cursor:
		return 0, ErrNotErased
	case first > cursor:
		return 0, ErrOutOfOrder
	case n > c.cfg.geo.PagesPerBlock-first:
		return 0, ErrOutOfRange
	}
	b.NextPage += int16(n)
	c.st.Stats.Programs += int64(n)
	return time.Duration(n) * (c.cfg.transfer + c.cfg.timing.ProgramPage), nil
}

// EraseBlock erases a block, returning it to the all-erased state. When the
// erase budget for the cell type is exceeded the block is marked bad and
// ErrWornOut is returned.
func (c *Chip) EraseBlock(block int) (time.Duration, error) {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	b.EraseCount++
	c.st.Stats.Erases++
	if int(b.EraseCount) > c.cfg.cell.EraseLimit() {
		b.Bad = true
		return c.cfg.timing.EraseBlock, ErrWornOut
	}
	b.NextPage = 0
	return c.cfg.timing.EraseBlock, nil
}
