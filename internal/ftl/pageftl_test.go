package ftl

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"uflip/internal/flash"
)

const testLogical = 16 << 20 // 16 MB logical space

func newTestPageFTL(t testing.TB, mutate func(*PageConfig)) *PageFTL {
	t.Helper()
	cfg := PageConfig{
		LogicalBytes:    testLogical,
		WritePoints:     4,
		ReserveBlocks:   8,
		GCBatch:         2,
		MapDirtyLimit:   8,
		MapUnitsPerPage: 128,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	arr, err := NewUniformArray(2, flash.SLC, testLogical+int64(cfg.ReserveBlocks+cfg.WritePoints+8)*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewPageFTL(arr, cfg, testModel())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestPageConfigValidation(t *testing.T) {
	arr, err := NewUniformArray(1, flash.SLC, 8<<20)
	if err != nil {
		t.Fatal(err)
	}
	base := PageConfig{
		LogicalBytes: 4 << 20, WritePoints: 2,
		ReserveBlocks: 4, MapDirtyLimit: 2, MapUnitsPerPage: 16,
	}
	if _, err := NewPageFTL(arr, base, testModel()); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []func(*PageConfig){
		func(c *PageConfig) { c.LogicalBytes = 0 },
		func(c *PageConfig) { c.WritePoints = 0 },        //
		func(c *PageConfig) { c.ReserveBlocks = 1 },      //
		func(c *PageConfig) { c.MapDirtyLimit = 0 },      //
		func(c *PageConfig) { c.LogicalBytes = 1 << 40 }, // over-committed
	}
	for i, mutate := range bad {
		cfg := base
		mutate(&cfg)
		if _, err := NewPageFTL(arr, cfg, testModel()); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestPageFTLRangeChecks(t *testing.T) {
	f := newTestPageFTL(t, nil)
	if _, err := f.Write(testLogical, 512); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("overflow write gave %v", err)
	}
	if _, err := f.Read(-1, 512); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("negative read gave %v", err)
	}
	if ops, err := f.Write(0, 0); err != nil || !ops.IsZero() {
		t.Fatalf("zero-length write: %v %+v", err, ops)
	}
}

func TestPageFTLWriteThenRead(t *testing.T) {
	f := newTestPageFTL(t, nil)
	if _, err := f.Write(0, 128*1024); err != nil {
		t.Fatal(err)
	}
	ops, err := f.Read(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.PageReads != 16 {
		t.Fatalf("read of 32 KB did %d page reads, want 16", ops.PageReads)
	}
	// Unmapped region reads from the controller, no flash reads.
	ops, err = f.Read(8<<20, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.PageReads != 0 || ops.RAMBytes == 0 {
		t.Fatalf("unmapped read ops %+v", ops)
	}
}

func TestPageFTLFullUnitWriteNoRMW(t *testing.T) {
	f := newTestPageFTL(t, nil)
	if _, err := f.Write(0, 128*1024); err != nil {
		t.Fatal(err)
	}
	// Overwriting a whole unit never reads old data.
	ops, err := f.Write(0, 128*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads != 0 {
		t.Fatalf("aligned full-unit overwrite did %d merge reads", ops.MergeReads)
	}
}

func TestPageFTLPartialWriteRMW(t *testing.T) {
	f := newTestPageFTL(t, nil)
	if _, err := f.Write(0, 128*1024); err != nil {
		t.Fatal(err)
	}
	// Overwriting 32 KB of a mapped 128 KB unit must read the other 96 KB.
	ops, err := f.Write(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads != 48 {
		t.Fatalf("partial overwrite did %d merge reads, want 48", ops.MergeReads)
	}
	// And the copied pages are merge-path programs, only the host's 16
	// are host-path.
	if ops.PagePrograms != 16 || ops.MergePrograms != 48 {
		t.Fatalf("programs host=%d merge=%d, want 16/48", ops.PagePrograms, ops.MergePrograms)
	}
}

func TestPageFTLUnmappedPartialWriteIsCheap(t *testing.T) {
	f := newTestPageFTL(t, nil)
	// A partial write to an unmapped unit has nothing to copy: the
	// Section 4.1 out-of-box cheapness.
	ops, err := f.Write(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads != 0 || ops.MergePrograms != 0 {
		t.Fatalf("unmapped partial write ops %+v", ops)
	}
	if ops.PagePrograms != 64 {
		t.Fatalf("programs = %d, want full unit 64", ops.PagePrograms)
	}
}

func TestPageFTLJournal(t *testing.T) {
	f := newTestPageFTL(t, func(c *PageConfig) { c.JournalMaxBytes = 16 * 1024 })
	if _, err := f.Write(0, 128*1024); err != nil {
		t.Fatal(err)
	}
	// A 4 KB write within the journal threshold pays only its own pages.
	ops, err := f.Write(0, 4*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads != 0 {
		t.Fatalf("journaled write did %d merge reads", ops.MergeReads)
	}
	if ops.PagePrograms != 2 {
		t.Fatalf("journaled 4 KB write charged %d programs, want 2", ops.PagePrograms)
	}
	// A 32 KB write exceeds the threshold and pays the full RMW.
	ops, err = f.Write(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.MergeReads == 0 {
		t.Fatal("above-threshold write skipped RMW")
	}
}

func TestPageFTLSequentialCheaperThanRandom(t *testing.T) {
	f := newTestPageFTL(t, nil)
	m := testModel()
	// Fill the logical space once.
	for off := int64(0); off < testLogical; off += 128 * 1024 {
		if _, err := f.Write(off, 128*1024); err != nil {
			t.Fatal(err)
		}
	}
	// Sequential unit-aligned writes (what the write buffer hands a real
	// FTL) versus scattered sub-unit random writes, compared per byte.
	var seqCost, rndCost time.Duration
	var seqBytes, rndBytes int64
	for i := 0; i < 64; i++ {
		ops, err := f.Write(int64(i)*128*1024, 128*1024)
		if err != nil {
			t.Fatal(err)
		}
		seqCost += m.Cost(&ops)
		seqBytes += 128 * 1024
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		off := rng.Int63n(testLogical/(32*1024)) * 32 * 1024
		ops, err := f.Write(off, 32*1024)
		if err != nil {
			t.Fatal(err)
		}
		rndCost += m.Cost(&ops)
		rndBytes += 32 * 1024
	}
	seqPerByte := float64(seqCost) / float64(seqBytes)
	rndPerByte := float64(rndCost) / float64(rndBytes)
	if rndPerByte < 2*seqPerByte {
		t.Fatalf("random writes (%.2f ns/B) not clearly dearer than sequential (%.2f ns/B)", rndPerByte, seqPerByte)
	}
}

func TestPageFTLGCReclaimsObsoleteBlocks(t *testing.T) {
	f := newTestPageFTL(t, nil)
	// Write the whole space twice: the first generation becomes wholly
	// obsolete and must be reclaimed rather than exhausting the array.
	for round := 0; round < 3; round++ {
		for off := int64(0); off < testLogical; off += 128 * 1024 {
			if _, err := f.Write(off, 128*1024); err != nil {
				t.Fatalf("round %d off %d: %v", round, off, err)
			}
		}
	}
	st := f.Stats()
	if st.BlocksErased == 0 {
		t.Fatal("no blocks erased after overwriting the space")
	}
	if st.SwitchMerges == 0 {
		t.Fatal("sequential overwrite should produce switch merges (fully obsolete victims)")
	}
}

// TestPageFTLMappingConsistency is the central property test: after an
// arbitrary random workload, the forward and reverse maps agree and every
// mapped logical block sits in a fully programmed flash block.
func TestPageFTLMappingConsistency(t *testing.T) {
	f := newTestPageFTL(t, nil)
	rng := rand.New(rand.NewSource(21))
	for step := 0; step < 4000; step++ {
		size := (rng.Int63n(256) + 1) * 512
		off := rng.Int63n(testLogical - size)
		if rng.Intn(4) == 0 {
			if _, err := f.Read(off, size); err != nil {
				t.Fatalf("step %d read: %v", step, err)
			}
		} else {
			if _, err := f.Write(off, size); err != nil {
				t.Fatalf("step %d write: %v", step, err)
			}
		}
		if rng.Intn(16) == 0 {
			f.Idle(time.Duration(rng.Int63n(int64(50 * time.Millisecond))))
		}
	}
	checkPageFTLConsistency(t, f)
}

func checkPageFTLConsistency(t *testing.T, f *PageFTL) {
	t.Helper()
	for lb, pb := range f.st.FMap {
		if pb < 0 {
			continue
		}
		if f.st.RMap[pb] != int64(lb) {
			t.Fatalf("fmap[%d]=%d but rmap[%d]=%d", lb, pb, pb, f.st.RMap[pb])
		}
		if next, err := f.arr.NextProgramPage(int(pb)); err != nil || next != f.cfg.pagesPerBlock {
			t.Fatalf("logical block %d maps to block %d, programmed to page %d (%v)", lb, pb, next, err)
		}
	}
	for pb, lb := range f.st.RMap {
		if lb >= 0 && f.st.FMap[lb] != int64(pb) {
			t.Fatalf("rmap[%d]=%d but fmap[%d]=%d", pb, lb, lb, f.st.FMap[lb])
		}
	}
}

func TestPageFTLAsyncReclaimRefillsPool(t *testing.T) {
	f := newTestPageFTL(t, func(c *PageConfig) {
		c.AsyncReclaim = true
		c.ReserveBlocks = 16
	})
	// Fill twice to create obsolete blocks and drain the pool.
	for round := 0; round < 2; round++ {
		for off := int64(0); off < testLogical; off += 128 * 1024 {
			if _, err := f.Write(off, 128*1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := f.FreeBlocks()
	f.Idle(time.Minute) // plenty of idle time
	after := f.FreeBlocks()
	if after <= before && after < 16 {
		t.Fatalf("async reclaim did not refill pool: %d -> %d", before, after)
	}
	if f.Stats().AsyncReclaims == 0 {
		t.Fatal("no async reclaims counted")
	}
}

func TestPageFTLNoAsyncReclaimWithoutFlag(t *testing.T) {
	f := newTestPageFTL(t, nil)
	for off := int64(0); off < testLogical; off += 128 * 1024 {
		if _, err := f.Write(off, 128*1024); err != nil {
			t.Fatal(err)
		}
	}
	f.Idle(time.Minute)
	if f.Stats().AsyncReclaims != 0 {
		t.Fatal("async reclaim ran despite being disabled")
	}
}

func TestPageFTLReadStallWhilePoolLow(t *testing.T) {
	f := newTestPageFTL(t, func(c *PageConfig) {
		c.AsyncReclaim = true
		c.ReadSteal = 0.5
		c.ReserveBlocks = 32
	})
	// Exhaust the pool with overwrites.
	for round := 0; round < 2; round++ {
		for off := int64(0); off < testLogical; off += 128 * 1024 {
			if _, err := f.Write(off, 128*1024); err != nil {
				t.Fatal(err)
			}
		}
	}
	if f.FreeBlocks() >= 32 {
		t.Skip("pool not drained; cannot observe lingering")
	}
	ops, err := f.Read(0, 32*1024)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Stall == 0 {
		t.Fatal("read while pool below target did not stall (Figure 5 lingering)")
	}
}

func TestPageFTLWearLeveling(t *testing.T) {
	f := newTestPageFTL(t, nil)
	// Hammer one unit; dynamic wear leveling (allocation from the
	// least-worn free block) must spread erases across many blocks.
	for i := 0; i < 2000; i++ {
		if _, err := f.Write(0, 128*1024); err != nil {
			t.Fatal(err)
		}
	}
	counts := make(map[int]int)
	maxEC := 0
	for b := 0; b < f.arr.Blocks(); b++ {
		ec, _ := f.arr.EraseCount(b)
		if ec > 0 {
			counts[b] = ec
			if ec > maxEC {
				maxEC = ec
			}
		}
	}
	if len(counts) < f.arr.Blocks()/2 {
		t.Fatalf("erases touched only %d of %d blocks", len(counts), f.arr.Blocks())
	}
	total := f.Stats().BlocksErased
	mean := float64(total) / float64(f.arr.Blocks())
	if float64(maxEC) > 4*mean+4 {
		t.Fatalf("wear imbalance: max %d vs mean %.1f", maxEC, mean)
	}
}

// TestServeReadStealPricesItsOwnRead: a read steal stalls ReadSteal times the
// cost of that read alone. Served into an accumulator that already holds an
// expensive IO's worth of operations, the read adds exactly what Read returns
// on a clone.
func TestServeReadStealPricesItsOwnRead(t *testing.T) {
	f := newTestPageFTL(t, func(c *PageConfig) {
		c.AsyncReclaim, c.ReadSteal, c.ReserveBlocks = true, 0.5, 4
	})
	const unit = 128 * 1024
	for u := int64(0); u < 12; u++ {
		if _, err := f.Write(u%6*unit, unit); err != nil {
			t.Fatal(err)
		}
	}
	// Retire spare blocks, as wear-out does, until the pool is below target
	// with overwritten blocks left to collect.
	for f.free.Len() >= f.cfg.ReserveBlocks {
		f.free.pop()
	}
	if f.victims.Len() == 0 {
		t.Fatal("no garbage-collection candidate to steal for")
	}
	want, err := f.Clone().Read(0, 3*unit)
	if err != nil {
		t.Fatal(err)
	}
	if want.Stall == 0 {
		t.Fatal("the read did not steal")
	}
	base := Ops{PageReads: 64, PagePrograms: 640, MergeReads: 64, MergePrograms: 64, Erases: 10, Stall: time.Second}
	acc := base
	if err := Serve(f, false, 0, 3*unit, &acc); err != nil {
		t.Fatal(err)
	}
	base.Add(want)
	if acc != base {
		t.Fatalf("served read left %+v, want %+v", acc, base)
	}
}

// TestReadStealNeedsARealCandidate pins the read-steal gate to the exact
// candidate count: a read below the reserve with no obsolete block to reclaim
// is not stalled to fund a reclamation that has nothing to reclaim — no stall,
// no credit, no reclaim.
func TestReadStealNeedsARealCandidate(t *testing.T) {
	const block = 128 * 1024
	arr, err := NewUniformArray(1, flash.SLC, 14*block)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewPageFTL(arr, PageConfig{
		LogicalBytes: 8 * block, WritePoints: 1, ReserveBlocks: 2,
		AsyncReclaim: true, ReadSteal: 0.5, MapDirtyLimit: 8, MapUnitsPerPage: 128,
	}, testModel())
	if err != nil {
		t.Fatal(err)
	}
	write := func(lb int64) {
		t.Helper()
		if _, err := f.Write(lb*block, block); err != nil {
			t.Fatal(err)
		}
	}
	// Fill four logical blocks, then overwrite the first: its old block is
	// closed and obsolete, the one candidate.
	for lb := int64(0); lb < 4; lb++ {
		write(lb)
	}
	write(0)
	if f.victims.Len() != 1 {
		t.Fatalf("queue holds %d entries for one candidate block", f.victims.Len())
	}
	// Retire spare blocks, as wear-out does, until the pool is one short of
	// its target; idle time then collects the candidate and refills it.
	for f.free.Len() > f.cfg.ReserveBlocks-1 {
		f.free.pop()
	}
	f.Idle(time.Second)
	if got := f.Stats().AsyncReclaims; got != 1 || f.victims.Len() != 0 {
		t.Fatalf("after idle: %d async reclaims, %d candidates; want 1 and 0", got, f.victims.Len())
	}
	// A first write of a fresh logical block takes the pool below target
	// again and closes a block that still holds data: nothing to reclaim.
	write(4)
	if f.FreeBlocks() >= f.cfg.ReserveBlocks {
		t.Fatalf("pool at %d, want below the reserve %d", f.FreeBlocks(), f.cfg.ReserveBlocks)
	}
	ops, err := f.Read(0, block)
	if err != nil {
		t.Fatal(err)
	}
	if ops.Stall != 0 {
		t.Fatalf("read stalled %v for a reclamation with no candidate", ops.Stall)
	}
	if got := f.Stats().AsyncReclaims; got != 1 || f.st.IdleCredit != 0 {
		t.Fatalf("after read: %d async reclaims, %v idle credit; want 1 and 0", got, f.st.IdleCredit)
	}
}
