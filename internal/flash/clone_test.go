package flash

import (
	"bytes"
	"testing"
)

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

// TestRestoreRejectsImpossibleBlockState: the cursor is the page state, so
// the only block states a snapshot can get wrong are a cursor outside
// [0, PagesPerBlock] and a wear counter the packed block state cannot hold.
// Restore must refuse them and leave the chip untouched; both ends of the
// cursor range themselves are valid.
func TestRestoreRejectsImpossibleBlockState(t *testing.T) {
	c := cloneTestChip(t)
	if _, err := c.ProgramRun(0, 0, 2, nil); err != nil {
		t.Fatal(err)
	}
	ppb := c.Geometry().PagesPerBlock
	for name, corrupt := range map[string]func(*BlockSnapshot){
		"cursor below zero":    func(b *BlockSnapshot) { b.NextPage = -1 },
		"cursor past block":    func(b *BlockSnapshot) { b.NextPage = ppb + 1 },
		"negative erase count": func(b *BlockSnapshot) { b.EraseCount = -1 },
		"erase count overflow": func(b *BlockSnapshot) { b.EraseCount = 1 << 31 },
	} {
		s := c.Snapshot()
		corrupt(&s.Blocks[3])
		s.Blocks[0].NextPage = ppb // valid, but must not be applied either
		if err := c.Restore(s); err == nil {
			t.Errorf("%s: Restore accepted the snapshot", name)
		}
		if next, _ := c.NextProgramPage(0); next != 2 {
			t.Fatalf("%s: rejected Restore moved block 0's cursor to %d", name, next)
		}
	}
	s := c.Snapshot()
	s.Blocks[0].NextPage, s.Blocks[1].NextPage = ppb, 0
	if err := c.Restore(s); err != nil {
		t.Fatalf("Restore refused cursors at the ends of the range: %v", err)
	}
	if _, err := c.ReadRun(0, 0, ppb); err != nil {
		t.Fatalf("restored full block does not read back: %v", err)
	}
}
