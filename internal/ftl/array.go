package ftl

import (
	"fmt"

	"uflip/internal/flash"
)

// Array presents a set of identical flash chips as one pool of globally
// numbered flash blocks. Global block g lives on chip g / blocksPerChip.
// Interleaving logical data across chips is the FTL's job; the array only
// provides addressing and state operations, page at a time or over a run of
// consecutive pages of one block. Timing is handled by the CostModel, so the
// durations returned by the chips are discarded here — the chips are kept
// honest about *state* (sequential programming, erase budgets), not timing.
type Array struct {
	chips []*flash.Chip
	cfg   arrayConfig
}

// arrayConfig is derived from the chips at construction.
type arrayConfig struct {
	geo           flash.Geometry
	blocksPerChip int
	totalBlocks   int
}

// ArrayState is the state of a chip array: its chips', in order. An array
// keeps none of its own.
type ArrayState struct {
	Chips []*flash.ChipState
}

func (s *ArrayState) copyFrom(src *ArrayState) {
	s.Chips = make([]*flash.ChipState, len(src.Chips))
	for i, c := range src.Chips {
		s.Chips[i] = &flash.ChipState{}
		s.Chips[i].CopyFrom(c)
	}
}

// block returns the state of global block gb of a valid array state.
func (s *ArrayState) block(gb int) *flash.BlockState {
	per := len(s.Chips[0].Blocks)
	return &s.Chips[gb/per].Blocks[gb%per]
}

func (s *ArrayState) blocks() int { return len(s.Chips) * len(s.Chips[0].Blocks) }

// NewArray builds an array over chips, which must share one geometry.
func NewArray(chips []*flash.Chip) (*Array, error) {
	if len(chips) == 0 {
		return nil, fmt.Errorf("ftl: array needs at least one chip")
	}
	geo := chips[0].Geometry()
	for i, c := range chips {
		if c.Geometry() != geo {
			return nil, fmt.Errorf("ftl: chip %d geometry differs from chip 0", i)
		}
	}
	return &Array{chips: chips, cfg: arrayConfig{geo: geo, blocksPerChip: geo.Blocks, totalBlocks: geo.Blocks * len(chips)}}, nil
}

// NewUniformArray is a convenience constructor building nChips identical
// chips of the given cell type sized so the array totals at least
// capacityBytes of raw flash.
func NewUniformArray(nChips int, cell flash.CellType, capacityBytes int64, opts ...flash.Option) (*Array, error) {
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
	geo.Blocks = int(perChip)
	chips := make([]*flash.Chip, nChips)
	for i := range chips {
		c, err := flash.NewChip(geo, cell, opts...)
		if err != nil {
			return nil, err
		}
		chips[i] = c
	}
	return NewArray(chips)
}

// resetFrom makes a a deep copy of src, reusing a's chips; a may be a zero
// value.
func (a *Array) resetFrom(src *Array) {
	if len(a.chips) != len(src.chips) {
		a.chips = make([]*flash.Chip, len(src.chips))
	}
	for i, c := range src.chips {
		if a.chips[i] == nil {
			a.chips[i] = &flash.Chip{}
		}
		a.chips[i].ResetFrom(c)
	}
	a.cfg = src.cfg
}

// view, check and load are the array's part in the state tree (state.go):
// the chips' live states, whether s holds a valid state for each chip, and
// copying those in.
func (a *Array) view() *ArrayState {
	s := &ArrayState{Chips: make([]*flash.ChipState, len(a.chips))}
	for i, c := range a.chips {
		s.Chips[i] = c.State()
	}
	return s
}

func (a *Array) check(s *ArrayState) error {
	if s == nil || len(s.Chips) != len(a.chips) {
		return fmt.Errorf("ftl: state is not that of an array of %d chips", len(a.chips))
	}
	for i, cs := range s.Chips {
		if err := a.chips[i].Check(cs); err != nil {
			return fmt.Errorf("ftl: chip %d: %w", i, err)
		}
	}
	return nil
}

func (a *Array) load(s *ArrayState) {
	for i, cs := range s.Chips {
		a.chips[i].State().CopyFrom(cs)
	}
}

// eraseLimit returns the per-block erase budget of the array's cell type.
func (a *Array) eraseLimit() int { return a.chips[0].Cell().EraseLimit() }

// Geometry returns the shared per-chip geometry.
func (a *Array) Geometry() flash.Geometry { return a.cfg.geo }

// Chips returns the number of chips (the channel-parallelism bound).
func (a *Array) Chips() int { return len(a.chips) }

// Blocks returns the total number of flash blocks across all chips.
func (a *Array) Blocks() int { return a.cfg.totalBlocks }

// RawCapacity returns total raw flash bytes across the array.
func (a *Array) RawCapacity() int64 {
	return int64(a.Blocks()) * int64(a.cfg.geo.BlockSize())
}

func (a *Array) locate(gb int) (*flash.Chip, int, error) {
	if gb < 0 || gb >= a.cfg.totalBlocks {
		return nil, 0, flash.ErrOutOfRange
	}
	if len(a.chips) == 1 {
		return a.chips[0], gb, nil
	}
	return a.chips[gb/a.cfg.blocksPerChip], gb % a.cfg.blocksPerChip, nil
}

// ReadPage reads one page of global block gb.
func (a *Array) ReadPage(gb, page int) error { return a.ReadRun(gb, page, 1) }

// ReadRun reads the n consecutive pages [first, first+n) of global block gb
// with one block lookup: all of them, or none and the error of the first
// offending page (flash.Chip.ReadRun).
//
//uflint:hotpath
func (a *Array) ReadRun(gb, first, n int) error {
	c, lb, err := a.locate(gb)
	if err != nil {
		return err
	}
	_, err = c.ReadRun(lb, first, n)
	return err
}

// ProgramPage programs one page of global block gb.
func (a *Array) ProgramPage(gb, page int) error { return a.ProgramRun(gb, page, 1, nil) }

// ProgramRun programs the n consecutive pages [first, first+n) of global
// block gb with one block lookup: all of them, or none and the error of the
// first offending page. payload is nil or the pages' payloads back to back
// (flash.Chip.ProgramRun).
//
//uflint:hotpath
func (a *Array) ProgramRun(gb, first, n int, payload []byte) error {
	c, lb, err := a.locate(gb)
	if err != nil {
		return err
	}
	_, err = c.ProgramRun(lb, first, n, payload)
	return err
}

// StoresData reports whether the chips retain page payloads (they were
// built with flash.WithDataStorage) — the switch that turns on the FTLs'
// data plane.
func (a *Array) StoresData() bool { return a.chips[0].StoresData() }

// PageData returns the stored payload of a programmed page of gb. The slice
// aliases the chip's internal buffer and is only valid until the page's
// block cycles; callers that retain it must copy. Requires data storage.
func (a *Array) PageData(gb, page int) ([]byte, error) {
	c, lb, err := a.locate(gb)
	if err != nil {
		return nil, err
	}
	return c.ReadData(lb, page)
}

// EraseBlock erases global block gb.
func (a *Array) EraseBlock(gb int) error {
	c, lb, err := a.locate(gb)
	if err != nil {
		return err
	}
	_, err = c.EraseBlock(lb)
	return err
}

// NextProgramPage returns the sequential-programming cursor of block gb.
func (a *Array) NextProgramPage(gb int) (int, error) {
	c, lb, err := a.locate(gb)
	if err != nil {
		return 0, err
	}
	return c.NextProgramPage(lb)
}

// EraseCount returns the wear counter of block gb.
func (a *Array) EraseCount(gb int) (int, error) {
	c, lb, err := a.locate(gb)
	if err != nil {
		return 0, err
	}
	return c.EraseCount(lb)
}

// IsBad reports whether block gb is unusable.
func (a *Array) IsBad(gb int) bool {
	c, lb, err := a.locate(gb)
	if err != nil {
		return true
	}
	return c.IsBad(lb)
}

// Stats sums the operation counters of all chips.
func (a *Array) Stats() flash.Stats {
	var s flash.Stats
	for _, c := range a.chips {
		cs := c.Stats()
		s.Reads += cs.Reads
		s.Programs += cs.Programs
		s.Erases += cs.Erases
	}
	return s
}
