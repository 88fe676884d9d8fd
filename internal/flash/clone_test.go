package flash

import (
	"bytes"
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

func cloneTestChip(t *testing.T, opts ...Option) *Chip {
	t.Helper()
	geo := Geometry{PageSize: 512, OOBSize: 16, PagesPerBlock: 4, Blocks: 8, Planes: 2}
	c, err := NewChip(geo, SLC, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestChipCloneEquivalence programs, reads and erases a chip, snapshots it,
// then drives the same operation sequence on both and checks durations,
// errors, stats and wear all match while the copies stay independent.
func TestChipCloneEquivalence(t *testing.T) {
	c := cloneTestChip(t, WithDataStorage())
	payload := []byte("uflip-clone")
	for b := 0; b < 4; b++ {
		for p := 0; p < 3; p++ {
			if _, err := c.ProgramPage(b, p, payload); err != nil {
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

	cl := c.Clone()
	if cl.Stats() != c.Stats() {
		t.Fatalf("clone stats %+v, want %+v", cl.Stats(), c.Stats())
	}
	// Same op on both must cost the same (page-register state included).
	for _, op := range []struct{ block, page int }{{0, 1}, {0, 2}, {2, 0}} {
		da, ea := c.ReadPage(op.block, op.page)
		db, eb := cl.ReadPage(op.block, op.page)
		if da != db || (ea == nil) != (eb == nil) {
			t.Fatalf("read (%d,%d): %v/%v vs %v/%v", op.block, op.page, da, ea, db, eb)
		}
	}
	got, err := cl.ReadData(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("clone payload %q, want %q", got, payload)
	}

	// Mutating the clone must not leak into the original.
	if _, err := cl.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.ProgramPage(0, 0, []byte("changed")); err != nil {
		t.Fatal(err)
	}
	orig, err := c.ReadData(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(orig, payload) {
		t.Fatalf("original payload mutated through clone: %q", orig)
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

// TestProgramReusesPayloadBuffer pins the program-path buffer reuse: after a
// block cycles once, re-programming its pages with payloads of the same size
// allocates nothing (the old buffer is overwritten in place).
func TestProgramReusesPayloadBuffer(t *testing.T) {
	c := cloneTestChip(t, WithDataStorage())
	payload := make([]byte, 512)
	for i := range payload {
		payload[i] = byte(i)
	}
	cycle := func() {
		for p := 0; p < c.Geometry().PagesPerBlock; p++ {
			if _, err := c.ProgramPage(0, p, payload); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := c.EraseBlock(0); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // first cycle allocates the buffers
	allocs := testing.AllocsPerRun(100, cycle)
	if allocs != 0 {
		t.Fatalf("program/erase cycle allocates %.2f times, want 0 after warm-up", allocs)
	}
	// The stored data still round-trips after reuse.
	if _, err := c.ProgramPage(0, 0, []byte("abc")); err != nil {
		t.Fatal(err)
	}
	got, err := c.ReadData(0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "abc" {
		t.Fatalf("payload after reuse = %q, want %q", got, "abc")
	}
}

// TestRestoreRejectsImpossibleBlockState: each row edits one field of a live
// chip's state into something no chip could hold and names the validator's
// complaint. Restore must refuse the state and leave the chip untouched; both
// ends of the cursor range themselves are valid. (An erase count past int32
// is no row: the state's field type cannot hold one.)
func TestRestoreRejectsImpossibleBlockState(t *testing.T) {
	c := cloneTestChip(t)
	if _, err := c.ProgramRun(0, 0, 2, nil); err != nil {
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
		{"a plane short", func(s *ChipState) { s.CachedPage = s.CachedPage[:1] }, "planes"},
		{"negative counter", func(s *ChipState) { s.Stats.Erases = -1 }, "counters"},
		{"payload on a chip that stores none", func(s *ChipState) { s.Data = map[int64][]byte{0: {1}} }, "payloads"},
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

// TestNilPayloadMapRestores: a data-storing chip restored from a state whose
// payload map is nil — what gob makes of an empty map — still stores data.
func TestNilPayloadMapRestores(t *testing.T) {
	c := cloneTestChip(t, WithDataStorage())
	s := snapshot(c)
	s.Data = nil
	if err := restore(c, s); err != nil {
		t.Fatal(err)
	}
	if _, err := c.ProgramPage(0, 0, []byte("x")); err != nil {
		t.Fatalf("chip restored from a nil payload map cannot store data: %v", err)
	}
}
