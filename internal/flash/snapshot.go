package flash

import (
	"fmt"
	"math"
)

// BlockSnapshot is the serializable state of one flash block. NextPage is
// the program cursor: pages below it are programmed, the rest erased, so a
// snapshot cannot describe page states that disagree with the cursor.
type BlockSnapshot struct {
	EraseCount int
	NextPage   int
	Bad        bool
}

// ChipSnapshot is the full serializable state of a chip: everything Clone
// copies, in exported form, so the persistent state store can write an
// enforced device to disk and restore it into a freshly built chip. The
// geometry and cell type are included for validation only — restoring always
// targets a chip constructed from the same profile.
type ChipSnapshot struct {
	Geometry Geometry
	Cell     CellType
	Blocks   []BlockSnapshot
	Stats    Stats
	// CachedBlock/CachedPage are the per-plane page-register contents.
	CachedBlock []int
	CachedPage  []int
	// Data holds page payloads; nil unless the chip stores data.
	Data map[int64][]byte
}

// Snapshot captures the chip's complete mutable state. The snapshot shares
// no memory with the chip.
func (c *Chip) Snapshot() *ChipSnapshot {
	s := &ChipSnapshot{
		Geometry:    c.geo,
		Cell:        c.cell,
		Blocks:      make([]BlockSnapshot, len(c.blocks)),
		Stats:       c.stats,
		CachedBlock: append([]int(nil), c.cachedBlock...),
		CachedPage:  append([]int(nil), c.cachedPage...),
	}
	for i, b := range c.blocks {
		s.Blocks[i] = BlockSnapshot{EraseCount: int(b.eraseCount), NextPage: int(b.nextPage), Bad: b.bad}
	}
	if c.storeData {
		s.Data = make(map[int64][]byte, len(c.data))
		for k, v := range c.data {
			s.Data[k] = append([]byte(nil), v...)
		}
	}
	return s
}

// Restore overwrites the chip's mutable state from a snapshot. The chip must
// have been constructed with the snapshot's geometry, cell type and data-
// storage setting (i.e. from the same profile); any mismatch is an error and
// leaves the chip unchanged.
func (c *Chip) Restore(s *ChipSnapshot) error {
	switch {
	case s == nil:
		return fmt.Errorf("flash: nil chip snapshot")
	case s.Geometry != c.geo:
		return fmt.Errorf("flash: snapshot geometry %+v does not match chip %+v", s.Geometry, c.geo)
	case s.Cell != c.cell:
		return fmt.Errorf("flash: snapshot cell type %v does not match chip %v", s.Cell, c.cell)
	case len(s.Blocks) != len(c.blocks):
		return fmt.Errorf("flash: snapshot has %d blocks, chip %d", len(s.Blocks), len(c.blocks))
	case len(s.CachedBlock) != c.geo.Planes || len(s.CachedPage) != c.geo.Planes:
		return fmt.Errorf("flash: snapshot register state does not match %d planes", c.geo.Planes)
	// gob decodes an empty map as nil, so a nil Data is valid for a
	// data-storing chip with no payloads yet; only payloads a non-storing
	// chip cannot hold are a mismatch.
	case len(s.Data) > 0 && !c.storeData:
		return fmt.Errorf("flash: snapshot carries payloads but the chip does not store data")
	}
	for i, b := range s.Blocks {
		if b.NextPage < 0 || b.NextPage > c.geo.PagesPerBlock {
			return fmt.Errorf("flash: snapshot block %d has program cursor %d outside [0,%d]", i, b.NextPage, c.geo.PagesPerBlock)
		}
		if b.EraseCount < 0 || b.EraseCount > math.MaxInt32 {
			return fmt.Errorf("flash: snapshot block %d has erase count %d outside [0,%d]", i, b.EraseCount, math.MaxInt32)
		}
	}
	for i, b := range s.Blocks {
		c.blocks[i] = blockState{eraseCount: int32(b.EraseCount), nextPage: int16(b.NextPage), bad: b.Bad}
	}
	c.stats = s.Stats
	copy(c.cachedBlock, s.CachedBlock)
	copy(c.cachedPage, s.CachedPage)
	if c.storeData {
		c.data = make(map[int64][]byte, len(s.Data))
		for k, v := range s.Data {
			c.data[k] = append([]byte(nil), v...)
		}
	}
	return nil
}
