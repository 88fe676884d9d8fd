package ftl

import (
	"fmt"

	"uflip/internal/flash"
)

// The flash geometry of every device (Section 2.1: flash is blocks of pages),
// declared once. A cache region is a flash block, so that a fully written
// region flushes as one whole-block write, and its RegionLines dirty lines
// are one uint32.
const (
	PageBytes     = 2048 // data bytes per flash page
	OOBBytes      = 64   // out-of-band bytes per page, moved with it on the bus
	PagesPerBlock = 64
	BlockBytes    = PageBytes * PagesPerBlock // 128 KiB
	LineBytes     = 4096                      // the cache's dirty-tracking granularity
	RegionLines   = BlockBytes / LineBytes    // 32 lines per cache region
)

// Array presents a device's flash as one pool of globally numbered flash
// blocks: a single flash.Chip whose geometry spans every block of the device.
// It provides addressing and state operations, page at a time or over a run
// of consecutive pages of one block. Timing is handled by the CostModel, so
// the durations returned by the chip are discarded here — the chip is kept
// honest about *state* (sequential programming, erase budgets), not timing.
type Array struct {
	chip flash.Chip
}

// NewUniformArray builds the flash of nChips identical two-plane chips of the
// given cell type and the package's geometry, each sized so the array totals
// at least capacityBytes of raw flash: nChips x perChip blocks, perChip at
// least 2 and even (planes balanced). The chip count sizes the array and
// nothing else.
func NewUniformArray(nChips int, cell flash.CellType, capacityBytes int64) (*Array, error) {
	if nChips <= 0 {
		return nil, fmt.Errorf("ftl: nChips must be positive, got %d", nChips)
	}
	perChip := max((capacityBytes+int64(nChips)*BlockBytes-1)/(int64(nChips)*BlockBytes), 2)
	perChip += perChip % 2
	c, err := flash.NewChip(flash.Geometry{
		PageSize:      PageBytes,
		OOBSize:       OOBBytes,
		PagesPerBlock: PagesPerBlock,
		Blocks:        nChips * int(perChip),
		Planes:        2,
	}, cell)
	if err != nil {
		return nil, err
	}
	return &Array{chip: *c}, nil
}

// resetFrom makes a a deep copy of src, reusing a's buffers; a may be a zero
// value.
func (a *Array) resetFrom(src *Array) { a.chip.ResetFrom(&src.chip) }

// eraseLimit returns the per-block erase budget of the array's cell type.
func (a *Array) eraseLimit() int { return a.chip.Cell().EraseLimit() }

// Geometry returns the flash geometry; its Blocks is the whole array's.
func (a *Array) Geometry() flash.Geometry { return a.chip.Geometry() }

// Blocks returns the total number of flash blocks.
func (a *Array) Blocks() int { return a.chip.Geometry().Blocks }

// ReadPage reads one page of global block gb.
func (a *Array) ReadPage(gb, page int) error { return a.ReadRun(gb, page, 1) }

// ReadRun reads the n consecutive pages [first, first+n) of global block gb:
// all of them, or none and the error of the first offending page
// (flash.Chip.ReadRun).
//
//uflint:hotpath
func (a *Array) ReadRun(gb, first, n int) error {
	_, err := a.chip.ReadRun(gb, first, n)
	return err
}

// ProgramPage programs one page of global block gb.
func (a *Array) ProgramPage(gb, page int) error { return a.ProgramRun(gb, page, 1) }

// ProgramRun programs the n consecutive pages [first, first+n) of global
// block gb: all of them, or none and the error of the first offending page
// (flash.Chip.ProgramRun).
//
//uflint:hotpath
func (a *Array) ProgramRun(gb, first, n int) error {
	_, err := a.chip.ProgramRun(gb, first, n)
	return err
}

// EraseBlock erases global block gb.
func (a *Array) EraseBlock(gb int) error {
	_, err := a.chip.EraseBlock(gb)
	return err
}

// NextProgramPage returns the sequential-programming cursor of block gb.
func (a *Array) NextProgramPage(gb int) (int, error) { return a.chip.NextProgramPage(gb) }

// EraseCount returns the wear counter of block gb.
func (a *Array) EraseCount(gb int) (int, error) { return a.chip.EraseCount(gb) }

// IsBad reports whether block gb is unusable.
func (a *Array) IsBad(gb int) bool { return a.chip.IsBad(gb) }
