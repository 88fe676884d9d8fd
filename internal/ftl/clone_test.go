package ftl

import (
	"reflect"
	"testing"
	"time"

	"uflip/internal/flash"
)

// cloneArray builds a small array for clone tests.
func cloneArray(t *testing.T) *Array {
	t.Helper()
	arr, err := NewUniformArray(2, flash.SLC, 16<<20)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

// driveOne issues IO i of the deterministic mixed workload the equivalence
// tests replay: a blend of focused writes, scattered writes, reads of both
// kinds and periodic idle grants, exercising allocation, garbage collection,
// merges, map bookkeeping and (through the cache) region eviction.
func driveOne(t *testing.T, tr Translator, i int) Ops {
	t.Helper()
	cap := tr.Capacity()
	// splitmix-style hash keeps offsets decorrelated from the loop index.
	z := uint64(i+1) * 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z ^= z >> 27
	off := int64(z%uint64(cap/512)) * 512
	size := int64(512 + (z>>13)%32*512)
	if off+size > cap {
		off = cap - size
	}
	var (
		ops Ops
		err error
	)
	switch i % 7 {
	case 0, 1, 2:
		ops, err = tr.Write(off, size)
	case 3:
		// Sequential-ish stream at the bottom of the space.
		so := (int64(i/7) * 4096) % (cap / 2)
		ops, err = tr.Write(so, 4096)
	case 4, 5:
		ops, err = tr.Read(off, size)
	default:
		ops, err = tr.Read(off%4096, 4096)
		tr.Idle(3 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("drive io %d: %v", i, err)
	}
	return ops
}

// wearOf snapshots the array-visible wear and operation state.
func wearOf(t *testing.T, arr *Array) []int {
	t.Helper()
	out := make([]int, 0, arr.Blocks()+3)
	for b := 0; b < arr.Blocks(); b++ {
		ec, err := arr.EraseCount(b)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, ec)
	}
	s := arr.Stats()
	out = append(out, int(s.Reads), int(s.Programs), int(s.Erases))
	return out
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// AddFlashWork accumulates into s the flash operations o accounts for.
// (Exported, like FlashBooks, for the external integrity tests.)
func AddFlashWork(s *flash.Stats, o Ops) {
	s.Reads += int64(o.PageReads + o.MergeReads)
	s.Programs += int64(o.PagePrograms + o.MergePrograms)
	s.Erases += int64(o.Erases)
}

// FlashBooks returns what the chips under a translation stack counted and
// what the stack's FTL claims to have asked of them.
func FlashBooks(tr Translator) (chips, claimed flash.Stats) {
	books := func(arr *Array, st Stats) (flash.Stats, flash.Stats) {
		return arr.Stats(), flash.Stats{Reads: st.PagesRead, Programs: st.PagesProgrammed, Erases: st.BlocksErased}
	}
	switch tr := tr.(type) {
	case *WriteCache:
		return FlashBooks(tr.Inner())
	case *PageFTL:
		return books(tr.arr, tr.st.Stats)
	case *BlockFTL:
		return books(tr.arr, tr.st.Stats)
	}
	panic("ftl: unknown translator")
}

// assertCloneEquivalent drives k IOs on the original, clones it, then drives
// n more IOs on both and asserts identical per-IO Ops streams, FTL stats and
// flash wear state — the clone-correctness oracle of the snapshot subsystem —
// and then the same of the clone reset in place from the original.
// On both it also checks the run-granular flash calls against the books: the
// chips must have counted exactly the page reads, programs and erases the
// FTL's counters claim and — when opsComplete says every flash operation is
// reported in some IO's Ops (no journal discount, no background reclamation
// or destaging) — exactly the sum of the Ops returned.
func assertCloneEquivalent(t *testing.T, tr Translator, arrOf func(Translator) *Array, statsOf func(Translator) Stats, k, n int, opsComplete bool) {
	t.Helper()
	var work flash.Stats
	for i := 0; i < k; i++ {
		AddFlashWork(&work, driveOne(t, tr, i))
	}
	cl := tr.Clone()
	cloneWork := work
	if got, want := statsOf(cl), statsOf(tr); got != want {
		t.Fatalf("clone stats diverge at snapshot: %+v vs %+v", got, want)
	}
	if !equalInts(wearOf(t, arrOf(cl)), wearOf(t, arrOf(tr))) {
		t.Fatal("clone wear state diverges at snapshot")
	}
	for i := k; i < k+n; i++ {
		a := driveOne(t, tr, i)
		b := driveOne(t, cl, i)
		if a != b {
			t.Fatalf("io %d: ops diverge: original %+v clone %+v", i, a, b)
		}
		AddFlashWork(&work, a)
		AddFlashWork(&cloneWork, b)
	}
	if got, want := statsOf(cl), statsOf(tr); got != want {
		t.Fatalf("stats diverge after replay: %+v vs %+v", got, want)
	}
	if !equalInts(wearOf(t, arrOf(cl)), wearOf(t, arrOf(tr))) {
		t.Fatal("wear state diverges after replay")
	}
	for _, side := range []struct {
		name string
		tr   Translator
		work flash.Stats
	}{{"original", tr, work}, {"clone", cl, cloneWork}} {
		chips, claimed := FlashBooks(side.tr)
		if chips != claimed {
			t.Fatalf("%s: chips counted %+v, the FTL's counters claim %+v", side.name, chips, claimed)
		}
		if opsComplete && chips != side.work {
			t.Fatalf("%s: chips counted %+v, the Ops stream sums to %+v", side.name, chips, side.work)
		}
	}

	// Reset instead of clone: the clone, by now n IOs away from the state it
	// copied, is overwritten in place from the original. It must come back as
	// itself (buffers reused, not a fresh stack), snapshot-identical to a
	// fresh clone, and track the original from there on.
	if got := ResetTranslator(cl, tr); got != cl {
		t.Fatalf("ResetTranslator returned a new %T instead of resetting the %T in place", got, cl)
	}
	want, err := SnapshotTranslator(tr.Clone())
	if err != nil {
		t.Fatal(err)
	}
	if got, err := SnapshotTranslator(cl); err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("reset layer's snapshot differs from a fresh clone's (err %v)", err)
	}
	for i := k + n; i < k+2*n; i++ {
		if a, b := driveOne(t, tr, i), driveOne(t, cl, i); a != b {
			t.Fatalf("io %d after reset: ops diverge: original %+v reset %+v", i, a, b)
		}
	}
	if got, want := statsOf(cl), statsOf(tr); got != want {
		t.Fatalf("stats diverge after reset and replay: %+v vs %+v", got, want)
	}
	if !equalInts(wearOf(t, arrOf(cl)), wearOf(t, arrOf(tr))) {
		t.Fatal("wear state diverges after reset and replay")
	}
	auditAll(t, tr, cl)
}

// auditAll fails the test unless every stack passes every layer's audit.
func auditAll(t *testing.T, stacks ...Translator) {
	t.Helper()
	for _, tr := range stacks {
		if err := Audit(tr); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPageFTLCloneEquivalence(t *testing.T) {
	cfg := PageConfig{
		LogicalBytes:    8 << 20,
		WritePoints:     2,
		ReserveBlocks:   8,
		AsyncReclaim:    true,
		ReadSteal:       0.3,
		GCBatch:         2,
		MapDirtyLimit:   4,
		MapUnitsPerPage: 16,
		JournalMaxBytes: 8 * 1024,
	}
	// Without the journal's discount and background reclamation every flash
	// operation shows up in some IO's Ops.
	inline := cfg
	inline.AsyncReclaim, inline.ReadSteal, inline.JournalMaxBytes = false, 0, 0
	for name, cfg := range map[string]PageConfig{"async+journal": cfg, "inline": inline} {
		t.Run(name, func(t *testing.T) {
			arr := cloneArray(t)
			cost := DefaultCostModel(flash.TypicalTiming(flash.SLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
			f, err := NewPageFTL(arr, cfg, cost)
			if err != nil {
				t.Fatal(err)
			}
			assertCloneEquivalent(t, f,
				func(tr Translator) *Array { return tr.(*PageFTL).arr },
				func(tr Translator) Stats { return tr.(*PageFTL).Stats() },
				600, 600, name == "inline")
		})
	}
}

func TestBlockFTLCloneEquivalence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.MLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	f, err := NewBlockFTL(arr, BlockConfig{
		LogicalBytes:    8 << 20,
		LogBlocks:       3,
		MapDirtyLimit:   2,
		MapUnitsPerPage: 8,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	assertCloneEquivalent(t, f,
		func(tr Translator) *Array { return tr.(*BlockFTL).arr },
		func(tr Translator) Stats { return tr.(*BlockFTL).Stats() },
		400, 400, true)
}

func TestWriteCacheCloneEquivalence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.SLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	inner, err := NewPageFTL(arr, PageConfig{
		LogicalBytes:    8 << 20,
		WritePoints:     2,
		ReserveBlocks:   8,
		GCBatch:         1,
		MapDirtyLimit:   8,
		MapUnitsPerPage: 32,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	c, err := NewWriteCache(inner, CacheConfig{
		CapacityBytes: 1 << 20,
		LineBytes:     4096,
		RegionBytes:   128 * 1024,
		Streams:       2,
		EvictBatch:    2,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	arrOf := func(tr Translator) *Array { return tr.(*WriteCache).Inner().(*PageFTL).arr }
	statsOf := func(tr Translator) Stats { return tr.(*WriteCache).Inner().(*PageFTL).Stats() }
	assertCloneEquivalent(t, c, arrOf, statsOf, 500, 500, true)

	// Cache-level counters must match too.
	cl := c.Clone().(*WriteCache)
	if cl.Stats() != c.Stats() {
		t.Fatalf("cache stats diverge: %+v vs %+v", cl.Stats(), c.Stats())
	}
	if cl.DirtyLines() != c.DirtyLines() || cl.OpenRegions() != c.OpenRegions() {
		t.Fatal("cache dirty-line/region state diverges at snapshot")
	}
	for i := 1000; i < 1400; i++ {
		a := driveOne(t, c, i)
		b := driveOne(t, cl, i)
		if a != b {
			t.Fatalf("io %d: cache ops diverge: %+v vs %+v", i, a, b)
		}
	}
	if cl.Stats() != c.Stats() {
		t.Fatalf("cache stats diverge after replay: %+v vs %+v", cl.Stats(), c.Stats())
	}
	auditAll(t, c, cl)
}

// TestCloneIndependence checks a clone's writes never leak into the original:
// the original's state stays frozen while the clone keeps working.
func TestCloneIndependence(t *testing.T) {
	arr := cloneArray(t)
	cost := DefaultCostModel(flash.TypicalTiming(flash.SLC), arr.Geometry().PageSize+arr.Geometry().OOBSize)
	f, err := NewPageFTL(arr, PageConfig{
		LogicalBytes:    8 << 20,
		WritePoints:     2,
		ReserveBlocks:   4,
		MapDirtyLimit:   4,
		MapUnitsPerPage: 16,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 300; i++ {
		driveOne(t, f, i)
	}
	before := f.Stats()
	wear := wearOf(t, f.arr)
	free := f.FreeBlocks()
	cl := f.Clone()
	for i := 300; i < 900; i++ {
		driveOne(t, cl, i)
	}
	if f.Stats() != before {
		t.Fatal("driving the clone changed the original's stats")
	}
	if !equalInts(wearOf(t, f.arr), wear) {
		t.Fatal("driving the clone changed the original's wear state")
	}
	if f.FreeBlocks() != free {
		t.Fatal("driving the clone changed the original's free pool")
	}
	auditAll(t, f, cl)
}

// TestMapBookRingZeroAlloc pins that steady-state map bookkeeping (the ring
// FIFO of dirty map pages and the bitset beside it) allocates nothing once
// warm, flushes included: every touch below dirties a new map page and
// flushes the oldest.
func TestMapBookRingZeroAlloc(t *testing.T) {
	b := newMapBook(4, 8, 4*4096)
	var ops Ops
	for i := int64(0); i < 1024; i++ {
		b.touch(i*4, &ops)
	}
	i := int64(1024)
	flushed := ops.MapFlushes + ops.SeqMapFlushes
	const runs = 1000
	allocs := testing.AllocsPerRun(runs, func() {
		b.touch(i*4, &ops)
		i++
	})
	if allocs != 0 {
		t.Fatalf("mapBook.touch allocates %.1f times per op, want 0", allocs)
	}
	if got := ops.MapFlushes + ops.SeqMapFlushes - flushed; got < runs {
		t.Fatalf("%d flushes over %d touches of fresh map pages", got, runs)
	}
	if b.dirtyCount() > 8 {
		t.Fatalf("dirty count %d exceeds limit", b.dirtyCount())
	}
}

// TestResetTranslatorFallsBackToClone: a destination of another concrete type
// — another layer of this package, or a Translator from outside it — cannot
// be reset from the source, so the caller gets a fresh clone of the source.
func TestResetTranslatorFallsBackToClone(t *testing.T) {
	page, block := newTestPageFTL(t, nil), newTestBlockFTL(t, nil)
	for i := 0; i < 200; i++ {
		driveOne(t, page, i)
	}
	for name, dst := range map[string]Translator{"nil": nil, "block": block, "foreign": &recordingTranslator{capacity: page.Capacity()}} {
		got := ResetTranslator(dst, page)
		if _, ok := got.(*PageFTL); !ok || got == Translator(page) || got == dst {
			t.Fatalf("%s: ResetTranslator returned %T, want a fresh *PageFTL", name, got)
		}
		if a, b := driveOne(t, got, 1000), driveOne(t, page.Clone(), 1000); a != b {
			t.Fatalf("%s: fallback clone diverges from Clone: %+v vs %+v", name, a, b)
		}
		auditAll(t, got)
	}
}
