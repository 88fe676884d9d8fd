package ftl

import (
	"errors"
	"testing"
	"time"

	"uflip/internal/flash"
)

func testModel() CostModel {
	m := DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	m.ReadParallel = 1
	m.ProgramParallel = 1
	m.MergeParallel = 1
	m.EraseParallel = 1
	return m
}

func TestOpsAddAndZero(t *testing.T) {
	var a Ops
	if !a.IsZero() {
		t.Fatal("zero Ops not zero")
	}
	a.Add(Ops{PageReads: 1, SeqPageReads: 1, PagePrograms: 2, MergeReads: 3, MergePrograms: 4,
		Erases: 5, MapFlushes: 6, SeqMapFlushes: 7, RAMBytes: 8, Stall: 9})
	b := Ops{PageReads: 1, SeqPageReads: 1, PagePrograms: 2, MergeReads: 3, MergePrograms: 4,
		Erases: 5, MapFlushes: 6, SeqMapFlushes: 7, RAMBytes: 8, Stall: 9}
	if a != b {
		t.Fatalf("Add result %+v", a)
	}
	if a.IsZero() {
		t.Fatal("non-zero Ops reported zero")
	}
}

func TestCostModelComponents(t *testing.T) {
	m := CostModel{
		ReadPage:    100 * time.Microsecond,
		ProgramPage: 200 * time.Microsecond,
		EraseBlock:  time.Millisecond,
		MapFlush:    10 * time.Millisecond,
		MapFlushSeq: time.Millisecond,
		RAMPerByte:  time.Nanosecond,
	}
	cases := []struct {
		ops  Ops
		want time.Duration
	}{
		{Ops{PageReads: 2}, 200 * time.Microsecond},
		{Ops{PagePrograms: 3}, 600 * time.Microsecond},
		{Ops{Erases: 1}, time.Millisecond},
		{Ops{MapFlushes: 1, SeqMapFlushes: 2}, 12 * time.Millisecond},
		{Ops{RAMBytes: 1000}, time.Microsecond},
		{Ops{Stall: 5 * time.Millisecond}, 5 * time.Millisecond},
		{Ops{MergeReads: 1, MergePrograms: 1}, 300 * time.Microsecond},
	}
	for i, c := range cases {
		if got := m.Cost(&c.ops); got != c.want {
			t.Errorf("case %d: Cost = %v, want %v", i, got, c.want)
		}
	}
}

func TestCostModelParallelism(t *testing.T) {
	m := testModel()
	serial := m.Cost(&Ops{PagePrograms: 8})
	m.ProgramParallel = 4
	if got := m.Cost(&Ops{PagePrograms: 8}); got != serial/4 {
		t.Fatalf("4-way parallel cost %v, want %v", got, serial/4)
	}
	// Values below 1 are treated as 1.
	m.ProgramParallel = 0.5
	if got := m.Cost(&Ops{PagePrograms: 8}); got != serial {
		t.Fatalf("sub-unit parallel cost %v, want %v", got, serial)
	}
}

func TestCostModelSeqReadFactor(t *testing.T) {
	m := testModel()
	m.SeqReadFactor = 0.25
	random := m.Cost(&Ops{PageReads: 4})
	seq := m.Cost(&Ops{PageReads: 4, SeqPageReads: 4})
	if seq >= random {
		t.Fatalf("sequential reads %v not cheaper than random %v", seq, random)
	}
	if seq != random/4 {
		t.Fatalf("seq cost %v, want %v", seq, random/4)
	}
}

func TestReclaimCost(t *testing.T) {
	m := testModel()
	zero := m.ReclaimCost(0)
	if zero != m.EraseBlock {
		t.Fatalf("empty reclaim = %v, want erase only %v", zero, m.EraseBlock)
	}
	if m.ReclaimCost(10) <= zero {
		t.Fatal("reclaim with live pages not dearer than empty reclaim")
	}
}

func TestWriteAmplification(t *testing.T) {
	var s Stats
	if s.WriteAmplification() != 0 {
		t.Fatal("WA of empty stats")
	}
	s.HostPagesWritten = 10
	s.PagesProgrammed = 25
	if got := s.WriteAmplification(); got != 2.5 {
		t.Fatalf("WA = %v", got)
	}
}

func TestNewUniformArray(t *testing.T) {
	arr, err := NewUniformArray(4, flash.SLC, 64<<20)
	if err != nil {
		t.Fatal(err)
	}
	if arr.Chips() != 4 {
		t.Fatalf("chips = %d", arr.Chips())
	}
	if arr.RawCapacity() < 64<<20 {
		t.Fatalf("raw capacity %d below request", arr.RawCapacity())
	}
	if _, err := NewUniformArray(0, flash.SLC, 1<<20); err == nil {
		t.Fatal("zero chips accepted")
	}
}

func TestArrayAddressing(t *testing.T) {
	arr, err := NewUniformArray(2, flash.SLC, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	last := arr.Blocks() - 1
	if err := arr.ProgramPage(last, 0); err != nil {
		t.Fatalf("program last block: %v", err)
	}
	if err := arr.ReadPage(last, 0); err != nil {
		t.Fatalf("read last block: %v", err)
	}
	if err := arr.EraseBlock(last); err != nil {
		t.Fatalf("erase last block: %v", err)
	}
	if ec, _ := arr.EraseCount(last); ec != 1 {
		t.Fatalf("erase count = %d", ec)
	}
	if err := arr.ProgramPage(arr.Blocks(), 0); !errors.Is(err, flash.ErrOutOfRange) {
		t.Fatalf("out-of-range program gave %v", err)
	}
	if !arr.IsBad(-1) {
		t.Fatal("out-of-range block should read bad")
	}
	s := arr.Stats()
	if s.Programs != 1 || s.Reads != 1 || s.Erases != 1 {
		t.Fatalf("array stats %+v", s)
	}
}

func TestArrayRejectsMixedGeometry(t *testing.T) {
	a, _ := flash.NewChip(flash.Geometry{PageSize: 2048, PagesPerBlock: 4, Blocks: 4, Planes: 1}, flash.SLC)
	b, _ := flash.NewChip(flash.Geometry{PageSize: 4096, PagesPerBlock: 4, Blocks: 4, Planes: 1}, flash.SLC)
	if _, err := NewArray([]*flash.Chip{a, b}); err == nil {
		t.Fatal("mixed geometry accepted")
	}
	if _, err := NewArray(nil); err == nil {
		t.Fatal("empty array accepted")
	}
}

func TestMapBook(t *testing.T) {
	b := newMapBook(16, 2, 64)
	var ops Ops
	b.touch(0, &ops)  // page 0
	b.touch(20, &ops) // page 1
	if ops.MapFlushes != 0 || ops.SeqMapFlushes != 0 {
		t.Fatalf("flush before limit: %+v", ops)
	}
	b.touch(40, &ops) // page 2 -> evicts page 0 (first flush: non-adjacent)
	if ops.MapFlushes != 1 {
		t.Fatalf("flushes = %d, want 1", ops.MapFlushes)
	}
	b.touch(60, &ops) // page 3 -> evicts page 1, adjacent to last flushed 0
	if ops.SeqMapFlushes != 1 {
		t.Fatalf("seq flushes = %d, want 1", ops.SeqMapFlushes)
	}
	// Re-touching a dirty page causes nothing.
	before := ops
	b.touch(41, &ops) // page 2 already dirty
	if ops != before {
		t.Fatalf("dirty re-touch changed ops: %+v", ops)
	}
	if b.dirtyCount() != 2 {
		t.Fatalf("dirty count = %d", b.dirtyCount())
	}
}
