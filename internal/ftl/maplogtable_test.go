package ftl

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"uflip/internal/flash"
)

// This file keeps the log table the slot array replaced — a
// map[int64]*mapLogEnt with one heap entry per attach — inside the timing-only
// write and read path of the BlockFTL as it stood, as the oracle
// FuzzLogTableMatchesMap compares the slot array against. The oracle never
// ranges over its map: eviction and snapshot walk the LBNs in order, which
// under the strict (lastUse, lbn) order picks the victim the map iteration
// picked.

type mapLogEnt struct {
	pb       int
	nextPage int
	lastUse  int64
}

type mapLogFTL struct {
	arr   *Array
	cfg   BlockConfig
	model CostModel

	blockBytes    int64
	pagesPerBlock int
	lbnCount      int64

	data []int32
	logs map[int64]*mapLogEnt
	free blockQueue
	tick int64

	book         mapBook
	stats        Stats
	lastReadSlot int64
}

// newMapLogFTL takes over a freshly constructed BlockFTL's array, pool and
// books.
func newMapLogFTL(f *BlockFTL) *mapLogFTL {
	return &mapLogFTL{
		arr: f.arr, cfg: f.cfg.BlockConfig, model: f.cfg.model,
		blockBytes: f.cfg.blockBytes, pagesPerBlock: f.cfg.pagesPerBlock, lbnCount: f.cfg.lbnCount,
		data: f.st.Data, logs: make(map[int64]*mapLogEnt, f.cfg.LogBlocks), free: f.free,
		book: f.book, lastReadSlot: f.st.LastReadSlot,
	}
}

func (f *mapLogFTL) dataNext(lbn int64) int {
	pb := f.data[lbn]
	if pb < 0 {
		return 0
	}
	n, _ := f.arr.NextProgramPage(int(pb))
	return n
}

func (f *mapLogFTL) copyPages(lbn int64, log *mapLogEnt, from, to int, ops *Ops) error {
	if to <= from {
		return nil
	}
	pb := int(f.data[lbn])
	held := min(to, f.dataNext(lbn)) - from
	if held > 0 {
		if err := f.arr.ReadRun(pb, from, held); err != nil {
			return fmt.Errorf("ftl: merge read: %w", err)
		}
		ops.MergeReads += held
		f.stats.PagesRead += int64(held)
	}
	if err := f.arr.ProgramRun(log.pb, from, to-from, nil); err != nil {
		return fmt.Errorf("ftl: merge program: %w", err)
	}
	ops.MergePrograms += to - from
	f.stats.PagesProgrammed += int64(to - from)
	log.nextPage = to
	return nil
}

func (f *mapLogFTL) fullMerge(lbn int64, ops *Ops) error {
	log := f.logs[lbn]
	if log == nil {
		return nil
	}
	old := f.data[lbn]
	oldNext := f.dataNext(lbn)
	f.stats.Merges++
	if log.nextPage < oldNext {
		if err := f.copyPages(lbn, log, log.nextPage, oldNext, ops); err != nil {
			return err
		}
	} else if old < 0 || oldNext == 0 {
		f.stats.SwitchMerges++
	}
	if old >= 0 {
		if err := f.arr.EraseBlock(int(old)); err != nil {
			return fmt.Errorf("ftl: merge erase: %w", err)
		}
		ops.Erases++
		f.stats.BlocksErased++
		ec, _ := f.arr.EraseCount(int(old))
		f.free.push(packKey(ec, int(old)))
	}
	f.data[lbn] = int32(log.pb)
	delete(f.logs, lbn)
	return nil
}

func (f *mapLogFTL) allocLog(lbn int64, ops *Ops) (*mapLogEnt, error) {
	if len(f.logs) >= f.cfg.LogBlocks {
		var victim int64 = -1
		var oldest int64
		for l := int64(0); l < f.lbnCount; l++ {
			if e := f.logs[l]; e != nil && (victim < 0 || e.lastUse < oldest) {
				victim, oldest = l, e.lastUse
			}
		}
		if err := f.fullMerge(victim, ops); err != nil {
			return nil, err
		}
	}
	if f.free.Len() == 0 {
		return nil, ErrNoSpace
	}
	pb := int(f.free.pop() & keyBlockMask)
	f.tick++
	log := &mapLogEnt{pb: pb, lastUse: f.tick}
	f.logs[lbn] = log
	return log, nil
}

func (f *mapLogFTL) pageRun(lbn int64, p, limit int) (block, n int, ok bool) {
	if log := f.logs[lbn]; log != nil && p < log.nextPage {
		return log.pb, min(limit, log.nextPage-p), true
	}
	if next := f.dataNext(lbn); p < next {
		return int(f.data[lbn]), min(limit, next-p), true
	}
	return 0, limit, false
}

func (f *mapLogFTL) writeSegment(lbn, start, end int64, ops *Ops) error {
	pageSize := int64(f.arr.Geometry().PageSize)
	sPage := int(start / pageSize)
	ePage := int((end - 1) / pageSize)
	if start%pageSize != 0 {
		if pb, _, ok := f.pageRun(lbn, sPage, 1); ok {
			if err := f.arr.ReadPage(pb, sPage); err != nil {
				return err
			}
			ops.MergeReads++
			f.stats.PagesRead++
		}
	}
	if end%pageSize != 0 && ePage != sPage {
		if pb, _, ok := f.pageRun(lbn, ePage, 1); ok {
			if err := f.arr.ReadPage(pb, ePage); err != nil {
				return err
			}
			ops.MergeReads++
			f.stats.PagesRead++
		}
	}
	log := f.logs[lbn]
	if log == nil {
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage < log.nextPage {
		if err := f.fullMerge(lbn, ops); err != nil {
			return err
		}
		var err error
		if log, err = f.allocLog(lbn, ops); err != nil {
			return err
		}
	}
	if sPage > log.nextPage {
		if err := f.copyPages(lbn, log, log.nextPage, sPage, ops); err != nil {
			return err
		}
	}
	n := ePage - sPage + 1
	if err := f.arr.ProgramRun(log.pb, sPage, n, nil); err != nil {
		return fmt.Errorf("ftl: log program: %w", err)
	}
	ops.PagePrograms += n
	f.stats.PagesProgrammed += int64(n)
	log.nextPage = ePage + 1
	f.tick++
	log.lastUse = f.tick
	if log.nextPage == f.pagesPerBlock {
		if err := f.fullMerge(lbn, ops); err != nil {
			return err
		}
	}
	before := ops.MapFlushes
	f.book.touch(lbn, ops)
	f.stats.MapFlushes += int64(ops.MapFlushes - before)
	return nil
}

func (f *mapLogFTL) Write(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.stats.HostWrites++
	pageSize := int64(f.arr.Geometry().PageSize)
	f.stats.HostPagesWritten += (off+length-1)/pageSize - off/pageSize + 1
	for pos, end := off, off+length; pos < end; {
		lbn := pos / f.blockBytes
		segEnd := min(end, (lbn+1)*f.blockBytes)
		if err := f.writeSegment(lbn, pos-lbn*f.blockBytes, segEnd-lbn*f.blockBytes, &ops); err != nil {
			return ops, err
		}
		pos = segEnd
	}
	f.lastReadSlot = -2
	return ops, nil
}

func (f *mapLogFTL) Read(off, length int64) (Ops, error) {
	var ops Ops
	if err := checkRange(off, length, f.cfg.LogicalBytes); err != nil {
		return ops, err
	}
	if length == 0 {
		return ops, nil
	}
	f.stats.HostReads++
	pageSize := int64(f.arr.Geometry().PageSize)
	p1 := (off + length - 1) / pageSize
	first := true
	for gp := off / pageSize; gp <= p1; {
		lbn := gp * pageSize / f.blockBytes
		pageInBlock := int(gp % int64(f.pagesPerBlock))
		pb, n, ok := f.pageRun(lbn, pageInBlock, int(min(int64(f.pagesPerBlock-pageInBlock), p1-gp+1)))
		gp += int64(n)
		if !ok {
			ops.RAMBytes += int64(n) * pageSize
			continue
		}
		if err := f.arr.ReadRun(pb, pageInBlock, n); err != nil {
			return ops, fmt.Errorf("ftl: read: %w", err)
		}
		f.stats.PagesRead += int64(n)
		chargeReadRun(&ops, &f.lastReadSlot, int64(pb)*int64(f.pagesPerBlock)+int64(pageInBlock), n, first, f.model.ReadSeek)
		first = false
	}
	return ops, nil
}

// logTableImage is everything a BlockFTL's state says, with the log table as
// rows sorted by LBN: which slot holds a log is arbitrary, and the oracle has
// no slots.
type logTableImage struct {
	Arr          *ArrayState
	Data         []int32
	Logs         []LogSlot
	Free         []uint64
	Tick         int64
	Book         MapBookState
	Stats        Stats
	LastReadSlot int64
}

func sortedLogs(rows []LogSlot) []LogSlot {
	sort.Slice(rows, func(i, j int) bool { return rows[i].LBN < rows[j].LBN })
	return rows
}

// image is the slot-array FTL's state in that form.
func image(t testing.TB, f *BlockFTL) *logTableImage {
	t.Helper()
	if err := Audit(f); err != nil {
		t.Fatal(err)
	}
	s, err := SnapshotTranslator(f)
	if err != nil {
		t.Fatal(err)
	}
	img := &logTableImage{Arr: s.Arr, Data: s.Block.Data, Free: s.Free.Keys, Tick: s.Block.Tick, Book: *s.Book, Stats: s.Block.Stats, LastReadSlot: s.Block.LastReadSlot}
	for _, l := range s.Block.Logs {
		if l.LBN >= 0 {
			img.Logs = append(img.Logs, l)
		}
	}
	sortedLogs(img.Logs)
	return img
}

// image is the oracle's state in the same form.
func (f *mapLogFTL) image() *logTableImage {
	img := &logTableImage{
		Arr:          copied(f.arr.view()),
		Data:         append([]int32(nil), f.data...),
		Free:         append([]uint64(nil), f.free.Keys...),
		Tick:         f.tick,
		Book:         *copied(&f.book.MapBookState),
		Stats:        f.stats,
		LastReadSlot: f.lastReadSlot,
	}
	for l := int64(0); l < f.lbnCount; l++ {
		if e := f.logs[l]; e != nil {
			img.Logs = append(img.Logs, LogSlot{LBN: l, PB: e.pb, NextPage: e.nextPage, LastUse: e.lastUse})
		}
	}
	return img
}

// load puts a freshly built oracle into the imaged state.
func (f *mapLogFTL) load(img *logTableImage) {
	f.arr.load(img.Arr)
	copy(f.data, img.Data)
	clear(f.logs)
	for _, l := range img.Logs {
		f.logs[l.LBN] = &mapLogEnt{pb: l.PB, nextPage: l.NextPage, lastUse: l.LastUse}
	}
	f.free.copyFrom(&QueueState{Keys: img.Free})
	f.tick = img.Tick
	f.book.copyFrom(&img.Book)
	f.book.rederive()
	f.stats, f.lastReadSlot = img.Stats, img.LastReadSlot
}

const logTableLBNs = 16

func newLogTableFTL(t testing.TB, logBlocks int) *BlockFTL {
	t.Helper()
	const blockBytes = 128 << 10
	cfg := BlockConfig{LogicalBytes: logTableLBNs * blockBytes, LogBlocks: logBlocks, MapDirtyLimit: 2, MapUnitsPerPage: 2}
	arr, err := NewUniformArray(2, flash.MLC, cfg.LogicalBytes+int64(logBlocks+4)*blockBytes)
	if err != nil {
		t.Fatal(err)
	}
	f, err := NewBlockFTL(arr, cfg, testModel())
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// FuzzLogTableMatchesMap drives a slot-array BlockFTL and the map-backed
// oracle with the same write / read / idle / snapshot-restore sequence and
// compares, after every step, the returned Ops and error, the Stats, the
// number of active logs and the whole state (logTableImage) — chip cursors
// and wear, data map, free pool, map book and the log rows, whose LBNs are the
// survivors of every eviction (the victim choice) — after the slot array has
// passed its own Audit. Each step is three bytes:
// kind and logical block, start page (top two bits: a 512-byte skew into the
// page), length in pages (top bit: a ragged end).
func FuzzLogTableMatchesMap(f *testing.F) {
	// One log block: every change of logical block evicts.
	f.Add([]byte{0, 0x00, 0, 4, 0x04, 0, 4, 0x00, 4, 4, 0x01, 0, 70})
	// Two: the Partitioning cliff, a rewrite in place, a gap, reads across both.
	f.Add([]byte{1, 0x00, 0, 8, 0x04, 0, 8, 0x08, 0, 8, 0x00, 2, 2, 0x04, 20, 4, 0x01, 0, 127, 0x02, 0, 0})
	// Eight slots with a hole in the middle: attach logs to blocks 0–2,
	// complete block 1's (a switch frees slot 1), restore both sides from the
	// snapshot and keep attaching and evicting.
	f.Add([]byte{2, 0x00, 0, 4, 0x04, 0, 32, 0x08, 0, 4, 0x04, 33, 30, 0x03, 0, 0,
		0x0c, 0, 4, 0x10, 0, 4, 0x14, 0, 4, 0x18, 0, 4, 0x1c, 0, 4, 0x20, 0, 4, 0x24, 0, 4, 0x28, 0, 4, 0x00, 1, 1, 0x03, 0, 0, 0x2c, 5, 200})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		logBlocks := []int{1, 2, 8}[int(in[0])%3]
		got, want := newLogTableFTL(t, logBlocks), newMapLogFTL(newLogTableFTL(t, logBlocks))
		pageSize := int64(got.arr.Geometry().PageSize)
		for step := 0; 1+3*step+2 < len(in); step++ {
			c := in[1+3*step : 4+3*step]
			off := int64(c[0]>>2%logTableLBNs)*got.cfg.blockBytes + int64(c[1]&63)*pageSize + int64(c[1]>>6)*512
			length := int64(c[2]&127+1)*pageSize - int64(c[2]>>7)*512
			length = min(length, got.Capacity()-off)
			var gotOps, wantOps Ops
			var gotErr, wantErr error
			switch c[0] & 3 {
			case 0:
				gotOps, gotErr = got.Write(off, length)
				wantOps, wantErr = want.Write(off, length)
			case 1:
				gotOps, gotErr = got.Read(off, length)
				wantOps, wantErr = want.Read(off, length)
			case 2:
				got.Idle(1 << 30) // the oracle's Idle was a no-op too
			case 3:
				g, w := newLogTableFTL(t, logBlocks), newMapLogFTL(newLogTableFTL(t, logBlocks))
				snap, err := SnapshotTranslator(got)
				if err != nil {
					t.Fatal(err)
				}
				if err := RestoreTranslator(g, snap); err != nil {
					t.Fatalf("step %d: restore: %v", step, err)
				}
				w.load(want.image())
				got, want = g, w
			}
			if gotOps != wantOps || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("step %d (% x): ops %+v err %v, oracle %+v err %v", step, c, gotOps, gotErr, wantOps, wantErr)
			}
			if got.Stats() != want.stats {
				t.Fatalf("step %d (% x): stats %+v, oracle %+v", step, c, got.Stats(), want.stats)
			}
			if got.ActiveLogs() != len(want.logs) {
				t.Fatalf("step %d (% x): %d active logs, oracle %d", step, c, got.ActiveLogs(), len(want.logs))
			}
			if gs, ws := image(t, got), want.image(); !reflect.DeepEqual(gs, ws) {
				t.Fatalf("step %d (% x): states differ:\n slots  %+v\n oracle %+v", step, c, gs.Logs, ws.Logs)
			}
		}
	})
}
