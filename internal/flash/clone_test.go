package flash

import (
	"strings"
	"testing"
)

// snapshot returns a copy of the chip's state; restore overwrites the chip's
// state with a copy of s if the chip's validator accepts it — what the layers
// above do with a whole array of chips.
func snapshot(c *Chip) *ChipState {
	s := &ChipState{}
	s.CopyFrom(c.State())
	return s
}

func restore(c *Chip, s *ChipState) error {
	if err := c.Check(s); err != nil {
		return err
	}
	c.State().CopyFrom(s)
	return nil
}

func cloneTestChip(t *testing.T) *Chip {
	t.Helper()
	geo := Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 4, Blocks: 8, Planes: 2}
	c, err := NewChip(geo, SLC)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChipCloneEquivalence programs, reads and erases a chip, snapshots it,
// then drives the same operation sequence on both and checks durations,
// errors, stats and wear all match while the copies stay independent.
func TestChipCloneEquivalence(t *testing.T) {
	c := cloneTestChip(t)
	for b := 0; b < 4; b++ {
		for p := 0; p < 3; p++ {
			if _, err := c.ProgramPage(b, p, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := c.EraseBlock(1); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadPage(0, 1); err != nil {
		t.Fatal(err)
	}

	cl := new(Chip)
	cl.ResetFrom(c)
	if cl.st.Stats != c.st.Stats {
		t.Fatalf("clone stats %+v, want %+v", cl.st.Stats, c.st.Stats)
	}
	// Same op on both must cost the same.
	for _, op := range []struct{ block, page int }{{0, 1}, {0, 2}, {2, 0}} {
		da, ea := c.ReadPage(op.block, op.page)
		db, eb := cl.ReadPage(op.block, op.page)
		if da != db || (ea == nil) != (eb == nil) {
			t.Fatalf("read (%d,%d): %v/%v vs %v/%v", op.block, op.page, da, ea, db, eb)
		}
	}

	// Mutating the clone must not leak into the original.
	if _, err := cl.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ProgramPage(0, 0, nil); err != nil {
		t.Fatal(err)
	}
	if next, _ := c.NextProgramPage(0); next != 3 {
		t.Fatalf("original's cursor moved to %d through the clone", next)
	}
	ecO, _ := c.EraseCount(0)
	ecC, _ := cl.EraseCount(0)
	if ecO == ecC {
		t.Fatal("clone erase did not stay private")
	}
	for _, chip := range []*Chip{c, cl} {
		if err := chip.Audit(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestRestoreRejectsImpossibleBlockState: each row edits one field of a live
// chip's state into something no chip could hold and names the validator's
// complaint. Restore must refuse the state and leave the chip untouched; both
// ends of the cursor range themselves are valid. (An erase count past int32
// is no row: the state's field type cannot hold one.)
func TestRestoreRejectsImpossibleBlockState(t *testing.T) {
	c := cloneTestChip(t)
	if _, err := c.ProgramRun(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ReadPage(0, 1); err != nil {
		t.Fatal(err)
	}
	ppb := int16(c.Geometry().PagesPerBlock)
	for _, row := range []struct {
		name    string
		corrupt func(*ChipState)
		want    string
	}{
		{"cursor below zero", func(s *ChipState) { s.Blocks[3].NextPage = -1 }, "program cursor"},
		{"cursor past block", func(s *ChipState) { s.Blocks[3].NextPage = ppb + 1 }, "program cursor"},
		{"negative erase count", func(s *ChipState) { s.Blocks[3].EraseCount = -1 }, "erase count"},
		{"worn out but not bad", func(s *ChipState) { s.Blocks[3].EraseCount = int32(SLC.EraseLimit() + 1) }, "erase count"},
		{"erase count past the budget", func(s *ChipState) {
			s.Blocks[3] = BlockState{EraseCount: int32(SLC.EraseLimit() + 2), Bad: true}
		}, "erase count"},
		{"a block short", func(s *ChipState) { s.Blocks = s.Blocks[:len(s.Blocks)-1] }, "blocks"},
		{"negative counter", func(s *ChipState) { s.Stats.Erases = -1 }, "counters"},
	} {
		s := snapshot(c)
		row.corrupt(s)
		s.Blocks[0].NextPage = ppb // valid, but must not be applied either
		if err := restore(c, s); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: Restore = %v, want an error about %q", row.name, err, row.want)
		}
		if next, _ := c.NextProgramPage(0); next != 2 {
			t.Fatalf("%s: rejected Restore moved block 0's cursor to %d", row.name, next)
		}
		if err := c.Audit(); err != nil {
			t.Fatalf("%s: chip fails its own audit after the rejected Restore: %v", row.name, err)
		}
	}
	s := snapshot(c)
	s.Blocks[0].NextPage, s.Blocks[1].NextPage = ppb, 0
	if err := restore(c, s); err != nil {
		t.Fatalf("Restore refused cursors at the ends of the range: %v", err)
	}
	if _, err := c.ReadRun(0, 0, int(ppb)); err != nil {
		t.Fatalf("restored full block does not read back: %v", err)
	}
	if err := c.Audit(); err != nil {
		t.Fatal(err)
	}
}
