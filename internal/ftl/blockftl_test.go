package ftl

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"uflip/internal/flash"
)

func newTestBlockFTL(t testing.TB, mutate func(*BlockConfig)) *BlockFTL {
	t.Helper()
	cfg := BlockConfig{
		LogicalBytes:    testLogical,
		LogBlocks:       4,
		MapDirtyLimit:   8,
		MapUnitsPerPage: 16,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	arr, err := NewUniformArray(2, flash.MLC, testLogical+int64(cfg.LogBlocks+8)*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewBlockFTL(arr, cfg, testModel())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBlockConfigValidation(t *testing.T) {
	arr, err := NewUniformArray(1, flash.MLC, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	base := BlockConfig{LogicalBytes: 4 << 20, LogBlocks: 2, MapDirtyLimit: 2, MapUnitsPerPage: 8}
	if _, err := NewBlockFTL(arr, base, testModel()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*BlockConfig){
		func(c *BlockConfig) { c.LogicalBytes = 0 },
		func(c *BlockConfig) { c.LogBlocks = 0 },
		func(c *BlockConfig) { c.MapDirtyLimit = 0 },
		func(c *BlockConfig) { c.LogicalBytes = 1 << 40 },
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewBlockFTL(arr, cfg, testModel()); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestBlockFTLRangeChecks(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	if _, err := f.Write(testLogical, 512); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow write gave %v", err)
	}
	if _, err := f.Read(0, -1); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative read gave %v", err)
	}
}

func TestBlockFTLSequentialWriteIsAppendsPlusSwitch(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	var total Ops
	// Write one full logical block in four sequential 32 KB IOs.
	for i := int64(0); i < 4; i++ {
		ops, err := f.Write(i*32*1024, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		total.Add(ops)
	}
	// No data existed: nothing to copy, one switch (no erase: no old
	// block), 64 host programs.
	if total.MergeReads != 0 || total.MergePrograms != 0 {
		t.Fatalf("fresh sequential fill copied pages: %+v", total)
	}
	if total.PagePrograms != 64 {
		t.Fatalf("programs = %d, want 64", total.PagePrograms)
	}
	st := f.Stats()
	if st.SwitchMerges != 1 {
		t.Fatalf("switch merges = %d, want 1", st.SwitchMerges)
	}
	// Second sequential pass: same appends plus the old block's erase.
	var second Ops
	for i := int64(0); i < 4; i++ {
		ops, err := f.Write(i*32*1024, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		second.Add(ops)
	}
	if second.Erases != 1 {
		t.Fatalf("second pass erases = %d, want 1", second.Erases)
	}
	if second.MergeReads != 0 {
		t.Fatalf("second sequential pass copied pages: %+v", second)
	}
}

func TestBlockFTLOutOfOrderWriteForcesMerge(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	// Write pages 0..15, then rewrite the same range: the in-order log
	// cannot accept it, forcing a merge.
	if _, err := f.Write(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	before := f.Stats().Merges
	if _, err := f.Write(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	if f.Stats().Merges <= before {
		t.Fatal("in-place rewrite did not force a merge")
	}
}

func TestBlockFTLGapPadsCopies(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	// Fill a block fully, then write its second 32 KB chunk: the new log
	// must pull pages 0..15 forward first.
	if _, err := f.Write(0, 128*1024); err != nil {
		t.Fatal(err)
	}
	ops, err := f.Write(32*1024, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads != 16 || ops.MergePrograms != 16 {
		t.Fatalf("gap write copies: reads=%d programs=%d, want 16/16", ops.MergeReads, ops.MergePrograms)
	}
}

func TestBlockFTLLogEviction(t *testing.T) {
	f := newTestBlockFTL(t, func(c *BlockConfig) { c.LogBlocks = 2 })
	// Open partial logs on three distinct logical blocks: the third must
	// evict (merge) the least recently used log.
	for i := int64(0); i < 3; i++ {
		if _, err := f.Write(i*128*1024, 32*1024); err != nil {
			t.Fatal(err)
		}
	}
	if f.ActiveLogs() != 2 {
		t.Fatalf("active logs = %d, want 2", f.ActiveLogs())
	}
	if f.Stats().Merges == 0 {
		t.Fatal("log eviction did not merge")
	}
}

func TestBlockFTLReadLocations(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	// Data in the log, the data block, and nowhere.
	if _, err := f.Write(0, 32*1024); err != nil { // log of lbn 0
		t.Fatal(err)
	}
	if _, err := f.Write(128*1024, 128*1024); err != nil { // completed lbn 1
		t.Fatal(err)
	}
	ops, err := f.Read(0, 32*1024) // from log
	if err != nil {
		t.Fatal(err)
	}
	if ops.PageReads != 16 {
		t.Fatalf("log read pages = %d", ops.PageReads)
	}
	ops, err = f.Read(128*1024, 32*1024) // from data block
	if err != nil {
		t.Fatal(err)
	}
	if ops.PageReads != 16 {
		t.Fatalf("data read pages = %d", ops.PageReads)
	}
	ops, err = f.Read(256*1024, 32*1024) // unmapped
	if err != nil {
		t.Fatal(err)
	}
	if ops.PageReads != 0 || ops.RAMBytes == 0 {
		t.Fatalf("unmapped read ops %+v", ops)
	}
}

func TestBlockFTLPartialPageRMW(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	if _, err := f.Write(0, 128*1024); err != nil {
		t.Fatal(err)
	}
	// A 512 B write inside an existing page must read that page first.
	ops, err := f.Write(512, 512)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads == 0 {
		t.Fatal("sub-page write did not read-modify-write")
	}
}

func TestBlockFTLIdleIsNoOp(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	if _, err := f.Write(0, 32*1024); err != nil {
		t.Fatal(err)
	}
	before := f.Stats()
	f.Idle(time.Hour)
	if f.Stats() != before {
		t.Fatal("Idle changed block FTL state (low-end devices have no background work)")
	}
}

func TestBlockFTLReverseDearerThanSequential(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	m := testModel()
	// Prefill two regions.
	for off := int64(0); off < 2*1024*1024; off += 128 * 1024 {
		if _, err := f.Write(off, 128*1024); err != nil {
			t.Fatal(err)
		}
	}
	var seq, rev time.Duration
	for i := int64(0); i < 32; i++ { // ascending over the first MB
		ops, err := f.Write(i*32*1024, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		seq += m.Cost(&ops)
	}
	for i := int64(31); i >= 0; i-- { // descending over the second MB
		ops, err := f.Write(1024*1024+i*32*1024, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		rev += m.Cost(&ops)
	}
	if rev < 2*seq {
		t.Fatalf("reverse (%v) not clearly dearer than sequential (%v)", rev, seq)
	}
}

// TestBlockFTLConsistency drives random IOs and checks the structural
// invariants: every mapped data block has a contiguous programmed prefix,
// log entries point at distinct physical blocks, and reads resolve without
// error for everything previously written.
func TestBlockFTLConsistency(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	rng := rand.New(rand.NewSource(5))
	written := make(map[int64]bool) // page-granularity record of writes
	for step := 0; step < 3000; step++ {
		size := (rng.Int63n(128) + 1) * 512
		off := rng.Int63n(testLogical - size)
		if _, err := f.Write(off, size); err != nil {
			t.Fatalf("step %d write(%d,%d): %v", step, off, size, err)
		}
		for p := off / PageBytes; p <= (off+size-1)/PageBytes; p++ {
			written[p] = true
		}
	}
	// Physical blocks used at most once across data and logs.
	used := make(map[int]string)
	for lbn, pb := range f.st.Data {
		if pb < 0 {
			continue
		}
		if prev, ok := used[int(pb)]; ok {
			t.Fatalf("block %d used twice (%s and data[%d])", pb, prev, lbn)
		}
		used[int(pb)] = "data"
	}
	for _, log := range f.st.Logs {
		if log.LBN < 0 {
			continue
		}
		if prev, ok := used[log.PB]; ok {
			t.Fatalf("block %d used twice (%s and log[%d])", log.PB, prev, log.LBN)
		}
		used[log.PB] = "log"
	}
	// Every written page resolves to a programmed location.
	for p := range written {
		lbn := p * PageBytes / BlockBytes
		pageInBlock := int(p % PagesPerBlock)
		if _, ok := f.pageLocation(lbn, pageInBlock); !ok {
			t.Fatalf("written page %d unresolvable", p)
		}
	}
}

// TestBlockFTLRestoreRejectsCorruptLogRows: a state that could not have come
// from a BlockFTL of this shape — the kind a damaged or crafted state file
// decodes to — is an error, never two live slots for one logical block, a log
// on a block the free pool also hands out, or an index panic on the next IO.
// Each row edits one field of a live FTL's state tree and names the
// validator's complaint; a rejected state leaves the target untouched.
func TestBlockFTLRestoreRejectsCorruptLogRows(t *testing.T) {
	build := func() *BlockFTL { return newTestBlockFTL(t, func(c *BlockConfig) { c.MapUnitsPerPage = 2 }) }
	src := build()
	for lbn := int64(0); lbn < 12; lbn++ { // four open logs, six map pages touched
		if _, err := src.Write(lbn*BlockBytes, 4*PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	if src.ActiveLogs() != 4 || src.book.Queued < 2 {
		t.Fatalf("set-up: %d active logs, %d dirty map pages", src.ActiveLogs(), src.book.Queued)
	}
	snapshot := func() *TranslatorState {
		s, err := SnapshotTranslator(src)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	if err := RestoreTranslator(build(), snapshot()); err != nil {
		t.Fatalf("intact state rejected: %v", err)
	}
	ring := func(s *TranslatorState, i int) *int64 { return &s.Book.Order[(s.Book.Head+i)%len(s.Book.Order)] }
	least := src.free.pop() // the least-worn erased block, put back
	src.free.push(least)
	freeBlock := int(least & keyBlockMask)
	for _, row := range []struct {
		name    string
		corrupt func(s *TranslatorState)
		want    string
	}{
		{"negative LBN", func(s *TranslatorState) { s.Block.Logs[0].LBN = -2 }, "serves logical block"},
		{"half-freed slot", func(s *TranslatorState) { s.Block.Logs[0].LBN = -1 }, "serves logical block"},
		{"LBN beyond the device", func(s *TranslatorState) { s.Block.Logs[3].LBN = src.cfg.lbnCount }, "serves logical block"},
		{"duplicate LBN", func(s *TranslatorState) { s.Block.Logs[2].LBN = s.Block.Logs[1].LBN }, "two log slots"},
		{"negative PB", func(s *TranslatorState) { s.Block.Logs[0].PB = -1 }, "outside the array"},
		{"PB beyond the array", func(s *TranslatorState) { s.Block.Logs[0].PB = src.arr.Blocks() }, "outside the array"},
		{"duplicate PB", func(s *TranslatorState) { s.Block.Logs[3].PB = s.Block.Logs[0].PB }, "serves twice"},
		{"PB in the free pool", func(s *TranslatorState) { s.Block.Logs[1].PB = freeBlock }, "the chip at page 0"},
		{"PB is a data block", func(s *TranslatorState) { s.Block.Logs[1].PB = int(s.Block.Data[0]) }, "serves twice"},
		{"negative cursor", func(s *TranslatorState) { s.Block.Logs[0].NextPage = -1 }, "the chip at page"},
		{"cursor beyond the chip's", func(s *TranslatorState) { s.Block.Logs[0].NextPage++ }, "the chip at page"},
		{"log used after the clock", func(s *TranslatorState) { s.Block.Logs[0].LastUse = s.Block.Tick + 1 }, "since tick"},
		{"a slot short", func(s *TranslatorState) { s.Block.Logs = s.Block.Logs[:3] }, "log slots"},
		{"data block beyond the array", func(s *TranslatorState) { s.Block.Data[8] = int32(src.arr.Blocks()) }, "outside the array"},
		{"two LBNs on one data block", func(s *TranslatorState) { s.Block.Data[1] = s.Block.Data[0] }, "serves twice"},
		{"programmed block left to the pool", func(s *TranslatorState) { s.Block.Data[0] = -1 }, "neither data nor log, so free, yet programmed"},
		{"negative counter", func(s *TranslatorState) { s.Block.Stats.Merges = -1 }, "out of range"},
		{"negative ring page", func(s *TranslatorState) { *ring(s, 0) = -1 }, "map page -1"},
		{"ring page beyond the map", func(s *TranslatorState) { *ring(s, 1) = src.book.cfg.pages }, "outside [0,"},
		{"ring page queued twice", func(s *TranslatorState) { *ring(s, 1) = *ring(s, 0) }, "queued twice"},
		{"ring head out of range", func(s *TranslatorState) { s.Book.Head = len(s.Book.Order) }, "map book ring"},
		{"a block short", func(s *TranslatorState) { s.Arr.Blocks = s.Arr.Blocks[:len(s.Arr.Blocks)-1] }, "blocks, chip"},
		{"a page FTL's state", func(s *TranslatorState) { s.Page, s.Block = &PageFTLState{}, nil }, "not a block FTL's"},
	} {
		s := snapshot()
		row.corrupt(s)
		dst := build()
		if err := RestoreTranslator(dst, s); err == nil || !strings.Contains(err.Error(), row.want) {
			t.Errorf("%s: RestoreTranslator = %v, want an error about %q", row.name, err, row.want)
		}
		if dst.Stats() != (Stats{}) || dst.ActiveLogs() != 0 {
			t.Errorf("%s: the rejected state reached the target", row.name)
		}
	}
	if err := Audit(src); err != nil {
		t.Fatal(err)
	}
}

// TestBlockFTLEvictingWritesZeroAlloc pins the slot table's point: a random
// write that attaches a log and evicts another on every IO — the steady state
// of the paper's low-end devices — allocates nothing.
func TestBlockFTLEvictingWritesZeroAlloc(t *testing.T) {
	f := newTestBlockFTL(t, nil)
	write := func(i int64) {
		lbn := (i * 37) % f.cfg.lbnCount
		if _, err := f.Write(lbn*BlockBytes+(i%8)*PageBytes, 4*PageBytes); err != nil {
			t.Fatal(err)
		}
	}
	i := int64(0)
	for ; i < 4*f.cfg.lbnCount; i++ {
		write(i)
	}
	merges := f.Stats().Merges
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		write(i)
		i++
	})
	if allocs != 0 {
		t.Fatalf("evicting write allocates %.1f times per IO, want 0", allocs)
	}
	if got := f.Stats().Merges - merges; got < runs {
		t.Fatalf("%d merges over %d writes: the loop is not evicting on every IO", got, runs)
	}
}
