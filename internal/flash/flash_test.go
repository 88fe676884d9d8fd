package flash

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

func testGeo() Geometry {
	return Geometry{PageSize: 2048, OOBSize: 64, PagesPerBlock: 4, Blocks: 8, Planes: 2}
}

func newTestChip(t *testing.T) *Chip {
	t.Helper()
	c, err := NewChip(testGeo(), SLC)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGeometryValidate(t *testing.T) {
	good := testGeo()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	cases := []func(*Geometry){
		func(g *Geometry) { g.PageSize = 0 },
		func(g *Geometry) { g.PagesPerBlock = -1 },
		func(g *Geometry) { g.Blocks = 0 },
		func(g *Geometry) { g.Planes = 3 },
		func(g *Geometry) { g.OOBSize = -1 },
	}
	for i, mutate := range cases {
		g := testGeo()
		mutate(&g)
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: invalid geometry accepted: %+v", i, g)
		}
		if _, err := NewChip(g, SLC); err == nil {
			t.Errorf("case %d: NewChip accepted invalid geometry", i)
		}
	}
}

func TestGeometryDerived(t *testing.T) {
	g := testGeo()
	if g.BlockSize() != 8192 {
		t.Errorf("BlockSize = %d", g.BlockSize())
	}
	if g.Capacity() != 8192*8 {
		t.Errorf("Capacity = %d", g.Capacity())
	}
}

func TestCellTypes(t *testing.T) {
	if SLC.String() != "SLC" || MLC.String() != "MLC" {
		t.Error("cell type names")
	}
	if SLC.EraseLimit() != 1_000_000 || MLC.EraseLimit() != 100_000 {
		t.Error("erase limits do not match the paper's 10^6/10^5")
	}
	slc, mlc := TypicalTiming(SLC), TypicalTiming(MLC)
	if slc.ProgramPage >= mlc.ProgramPage || slc.EraseBlock >= mlc.EraseBlock {
		t.Error("MLC should be slower than SLC")
	}
}

func TestProgramRequiresErased(t *testing.T) {
	c := newTestChip(t)
	if _, err := c.ProgramPage(0, 0, nil); err != nil {
		t.Fatalf("program on erased block: %v", err)
	}
	if _, err := c.ProgramPage(0, 0, nil); !errors.Is(err, ErrNotErased) {
		t.Fatalf("reprogramming gave %v, want ErrNotErased", err)
	}
}

func TestSequentialProgramConstraint(t *testing.T) {
	c := newTestChip(t)
	// Page 2 before 0 and 1: must fail (Section 2.1: writes are performed
	// sequentially within a flash block).
	if _, err := c.ProgramPage(1, 2, nil); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("out-of-order program gave %v, want ErrOutOfOrder", err)
	}
	for p := 0; p < 3; p++ {
		if _, err := c.ProgramPage(1, p, nil); err != nil {
			t.Fatalf("in-order program page %d: %v", p, err)
		}
	}
	if n, _ := c.NextProgramPage(1); n != 3 {
		t.Fatalf("NextProgramPage = %d, want 3", n)
	}
}

func TestReadErasedPageFails(t *testing.T) {
	c := newTestChip(t)
	if _, err := c.ReadPage(0, 0); !errors.Is(err, ErrReadErased) {
		t.Fatalf("reading erased page gave %v", err)
	}
}

func TestEraseResetsBlock(t *testing.T) {
	c := newTestChip(t)
	for p := 0; p < 4; p++ {
		if _, err := c.ProgramPage(2, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.EraseBlock(2); err != nil {
		t.Fatal(err)
	}
	if n, _ := c.NextProgramPage(2); n != 0 {
		t.Fatalf("NextProgramPage after erase = %d", n)
	}
	if ec, _ := c.EraseCount(2); ec != 1 {
		t.Fatalf("EraseCount = %d", ec)
	}
	st, _ := c.PageStateAt(2, 0)
	if st != PageErased {
		t.Fatal("pages not erased")
	}
	// Programming restarts at page 0.
	if _, err := c.ProgramPage(2, 0, nil); err != nil {
		t.Fatal(err)
	}
}

func TestWearOutMarksBad(t *testing.T) {
	g := testGeo()
	c, err := NewChip(g, MLC)
	if err != nil {
		t.Fatal(err)
	}
	var worn bool
	for i := 0; i < MLC.EraseLimit()+1; i++ {
		_, err := c.EraseBlock(0)
		if errors.Is(err, ErrWornOut) {
			worn = true
			break
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	if !worn {
		t.Fatal("block never wore out")
	}
	if !c.IsBad(0) {
		t.Fatal("worn block not marked bad")
	}
	if _, err := c.EraseBlock(0); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("erase of bad block gave %v", err)
	}
	if _, err := c.ProgramPage(0, 0, nil); !errors.Is(err, ErrBadBlock) {
		t.Fatalf("program of bad block gave %v", err)
	}
}

func TestMarkBad(t *testing.T) {
	c := newTestChip(t)
	if err := c.MarkBad(3); err != nil {
		t.Fatal(err)
	}
	if !c.IsBad(3) {
		t.Fatal("MarkBad had no effect")
	}
	if c.IsBad(4) {
		t.Fatal("wrong block marked")
	}
	if err := c.MarkBad(99); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("MarkBad out of range gave %v", err)
	}
	if !c.IsBad(-1) {
		t.Fatal("out-of-range block should read as bad")
	}
}

func TestStatsCounting(t *testing.T) {
	c := newTestChip(t)
	for p := 0; p < 2; p++ {
		if _, err := c.ProgramPage(0, p, nil); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.ReadPage(0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.EraseBlock(0); err != nil {
		t.Fatal(err)
	}
	s := c.st.Stats
	if s.Programs != 2 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestOutOfRangeOperations(t *testing.T) {
	c := newTestChip(t)
	if _, err := c.ReadPage(99, 0); !errors.Is(err, ErrOutOfRange) {
		t.Error("ReadPage out of range")
	}
	if _, err := c.ProgramPage(0, 99, nil); !errors.Is(err, ErrOutOfRange) {
		t.Error("ProgramPage out of range")
	}
	if _, err := c.EraseBlock(-1); !errors.Is(err, ErrOutOfRange) {
		t.Error("EraseBlock out of range")
	}
	if _, err := c.EraseCount(100); !errors.Is(err, ErrOutOfRange) {
		t.Error("EraseCount out of range")
	}
	if _, err := c.NextProgramPage(100); !errors.Is(err, ErrOutOfRange) {
		t.Error("NextProgramPage out of range")
	}
}

// TestChipInvariantsUnderRandomOps drives a chip with random operations and
// verifies the core invariants after every step: the programmed pages of a
// block always form a contiguous prefix, and operations report errors
// instead of corrupting state.
func TestChipInvariantsUnderRandomOps(t *testing.T) {
	c := newTestChip(t)
	g := testGeo()
	rng := rand.New(rand.NewSource(99))
	for step := 0; step < 5000; step++ {
		block := rng.Intn(g.Blocks)
		switch rng.Intn(3) {
		case 0:
			page := rng.Intn(g.PagesPerBlock)
			next, _ := c.NextProgramPage(block)
			_, err := c.ProgramPage(block, page, nil)
			if c.IsBad(block) {
				if !errors.Is(err, ErrBadBlock) {
					t.Fatalf("step %d: program on bad block gave %v", step, err)
				}
			} else if page == next && next < g.PagesPerBlock {
				if err != nil {
					t.Fatalf("step %d: valid program failed: %v", step, err)
				}
			} else if err == nil {
				t.Fatalf("step %d: invalid program (page %d, next %d) succeeded", step, page, next)
			}
		case 1:
			page := rng.Intn(g.PagesPerBlock)
			next, _ := c.NextProgramPage(block)
			_, err := c.ReadPage(block, page)
			if !c.IsBad(block) && page < next && err != nil {
				t.Fatalf("step %d: read of programmed page failed: %v", step, err)
			}
			if page >= next && err == nil {
				t.Fatalf("step %d: read of erased page succeeded", step)
			}
		case 2:
			_, _ = c.EraseBlock(block)
		}
		// Invariant: programmed pages form a contiguous prefix.
		next, _ := c.NextProgramPage(block)
		for p := 0; p < g.PagesPerBlock; p++ {
			st, _ := c.PageStateAt(block, p)
			if (p < next) != (st == PageProgrammed) && !c.IsBad(block) {
				t.Fatalf("step %d: page %d state %v with next=%d", step, p, st, next)
			}
		}
	}
}

// TestChipQuickProperties uses testing/quick over (block, page) pairs: a
// fresh chip must accept exactly the (b, 0) programs and reject everything
// else.
func TestChipQuickProperties(t *testing.T) {
	f := func(block uint8, page uint8) bool {
		c, err := NewChip(testGeo(), SLC)
		if err != nil {
			return false
		}
		b := int(block) % testGeo().Blocks
		p := int(page) % testGeo().PagesPerBlock
		_, err = c.ProgramPage(b, p, nil)
		if p == 0 {
			return err == nil
		}
		return errors.Is(err, ErrOutOfOrder)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
