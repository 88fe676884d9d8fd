package ftl

import (
	"fmt"

	"uflip/internal/flash"
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

// NewUniformArray builds the flash of nChips identical chips of the given cell
// type, each sized so the array totals at least capacityBytes of raw flash:
// nChips x perChip blocks, perChip at least 2 and even (two planes). The chip
// count sizes the array and nothing else.
func NewUniformArray(nChips int, cell flash.CellType, capacityBytes int64) (*Array, error) {
	if nChips <= 0 {
		return nil, fmt.Errorf("ftl: nChips must be positive, got %d", nChips)
	}
	geo := flash.Geometry{
		PageSize:      2048,
		OOBSize:       64,
		PagesPerBlock: 64,
		Planes:        2,
	}
	blockSize := int64(geo.BlockSize())
	perChip := (capacityBytes + int64(nChips)*blockSize - 1) / (int64(nChips) * blockSize)
	if perChip < 2 {
		perChip = 2
	}
	if geo.Planes == 2 && perChip%2 == 1 {
		perChip++ // keep planes balanced
	}
	geo.Blocks = nChips * int(perChip)
	c, err := flash.NewChip(geo, cell)
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

// Stats returns the flash operation counters.
func (a *Array) Stats() flash.Stats { return a.chip.Stats() }
