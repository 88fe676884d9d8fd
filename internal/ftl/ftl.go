// Package ftl implements the flash translation layer of Section 2.2 of the
// uFLIP paper: the software inside a flash device that maps logical block
// addresses to flash pages, trades writes-in-place for writes onto free
// pages, reclaims obsolete pages, levels wear, and maintains the direct and
// inverse maps whose bookkeeping makes write cost non-uniform in time.
//
// Two translation designs are provided, covering the device spectrum the
// paper measures:
//
//   - PageFTL: block-sized units written out of place from a pool of
//     pre-erased blocks, sub-block writes by read-modify-write or through a
//     journal; reclamation erases the blocks those writes left obsolete,
//     inline or in idle time. This models the high-end SSDs (Memoright,
//     Mtron, Samsung).
//   - BlockFTL: block-granularity mapping with a bounded set of replacement
//     ("log") blocks that only accept in-order appends. This models USB
//     flash drives, SD cards and IDE modules, whose random writes degenerate
//     to full block merges.
//
// A WriteCache can be stacked in front of either FTL to model controller RAM
// that absorbs focused random writes (the "locality area" of Table 3).
//
// The FTLs manipulate real simulated chips (package flash) so invariants such
// as sequential programming within a block and erase-before-program are
// enforced, but timing is decoupled: every operation reports an Ops count
// vector, and a CostModel converts Ops into durations with per-device
// parallelism and pipelining coefficients. This separation keeps the
// mechanics honest while making per-device calibration explicit.
package ftl

import (
	"errors"
	"fmt"
	"math/bits"
	"time"

	"uflip/internal/flash"
)

// Ops counts the primitive operations one logical IO triggered. The device's
// CostModel converts an Ops vector into a duration.
type Ops struct {
	PageReads     int           // host-path flash page reads
	SeqPageReads  int           // subset of PageReads that were contiguous (pipelined)
	PagePrograms  int           // host-path flash page programs (streamed, well pipelined)
	MergeReads    int           // merge-path page reads (merge / read-modify-write copies)
	MergePrograms int           // merge-path page programs (copy-back round trips)
	Erases        int           // block erases serviced inline
	MapFlushes    int           // scattered direct-map page flushes to flash
	SeqMapFlushes int           // map flushes that continue the previous one in order
	RAMBytes      int64         // bytes moved to/from controller RAM (cache hits)
	Stall         time.Duration // explicit extra delay (e.g. reclamation interleaved with reads)
}

// Add accumulates other into o.
func (o *Ops) Add(other Ops) {
	o.PageReads += other.PageReads
	o.SeqPageReads += other.SeqPageReads
	o.PagePrograms += other.PagePrograms
	o.MergeReads += other.MergeReads
	o.MergePrograms += other.MergePrograms
	o.Erases += other.Erases
	o.MapFlushes += other.MapFlushes
	o.SeqMapFlushes += other.SeqMapFlushes
	o.RAMBytes += other.RAMBytes
	o.Stall += other.Stall
}

// IsZero reports whether no operations were recorded.
func (o Ops) IsZero() bool { return o == Ops{} }

// CostModel converts operation counts into time, with coefficients for the
// internal parallelism (channels, planes, pipelining) that differs between a
// two-chip USB stick and a sixteen-chip SSD. A model is immutable once a
// device is built: every layer keeps its own copy and prices through a
// pointer to it.
type CostModel struct {
	ReadPage    time.Duration // one page: cell array -> register -> controller
	ProgramPage time.Duration // one page: controller -> register -> cell array
	EraseBlock  time.Duration

	// ReadParallel, ProgramParallel and EraseParallel divide the
	// respective serialized costs, modeling chip/plane interleaving.
	// Values < 1 are treated as 1. ProgramParallel applies to host-path
	// programs, which stream through the channels; MergeParallel applies
	// to merge-path copies (merges and read-modify-write), whose read-then-
	// program round trips pipeline far worse.
	ReadParallel    float64
	ProgramParallel float64
	MergeParallel   float64
	EraseParallel   float64

	// SeqReadFactor scales the cost of contiguous page reads, modeling
	// read-ahead pipelining (0 < factor <= 1). Zero means 1 (no boost).
	SeqReadFactor float64

	// RAMPerByte is the controller RAM transfer cost.
	RAMPerByte time.Duration

	// MapFlush is the cost of persisting one direct-map page. On simple
	// controllers a map flush cycles entire bookkeeping blocks, so this
	// can be large (it dominates the scattered-write cost of the low-end
	// devices in Table 3).
	MapFlush time.Duration

	// MapFlushSeq is the cost of a map flush that continues the previous
	// one in address order (sequential writing advances through map
	// pages in order, paying the bookkeeping-block cycle only at page
	// boundaries — the periodic spikes of Figure 4).
	MapFlushSeq time.Duration

	// ReadSeek is charged once per host read whose first page is not
	// contiguous with the previous read: the map lookup and chip/channel
	// switch that make RR slightly dearer than SR on every device.
	ReadSeek time.Duration
}

// DefaultCostModel derives a cost model from chip timing with no parallelism.
func DefaultCostModel(t flash.Timing, pageBytes int) CostModel {
	transfer := time.Duration(pageBytes) * t.PerByte
	return CostModel{
		ReadPage:    t.ReadPage + transfer,
		ProgramPage: t.ProgramPage + transfer,
		EraseBlock:  t.EraseBlock,
		RAMPerByte:  5 * time.Nanosecond,
		MapFlush:    t.ProgramPage,
	}
}

func div(d time.Duration, p float64) time.Duration {
	if p <= 1 {
		return d
	}
	return time.Duration(float64(d) / p)
}

// Cost converts an Ops vector into a duration. Model and vector are read
// through pointers (together they are over 200 bytes, priced once per IO),
// and a parallelism-scaled term whose counts are zero is skipped: it would
// contribute exactly 0, so the sum is the same to the nanosecond.
//
//uflint:hotpath
func (m *CostModel) Cost(o *Ops) time.Duration {
	d := time.Duration(o.MapFlushes)*m.MapFlush +
		time.Duration(o.SeqMapFlushes)*m.MapFlushSeq +
		time.Duration(o.RAMBytes)*m.RAMPerByte +
		o.Stall
	if o.PageReads != 0 || o.SeqPageReads != 0 {
		if randReads := o.PageReads - o.SeqPageReads; randReads > 0 {
			d += div(time.Duration(randReads)*m.ReadPage, m.ReadParallel)
		}
		seqFactor := m.SeqReadFactor
		if seqFactor <= 0 || seqFactor > 1 {
			seqFactor = 1
		}
		d += div(time.Duration(float64(o.SeqPageReads)*seqFactor*float64(m.ReadPage)), m.ReadParallel)
	}
	if o.PagePrograms != 0 {
		d += div(time.Duration(o.PagePrograms)*m.ProgramPage, m.ProgramParallel)
	}
	if o.MergeReads != 0 || o.MergePrograms != 0 {
		d += div(time.Duration(o.MergeReads)*m.ReadPage+time.Duration(o.MergePrograms)*m.ProgramPage, m.MergeParallel)
	}
	if o.Erases != 0 {
		d += div(time.Duration(o.Erases)*m.EraseBlock, m.EraseParallel)
	}
	return d
}

// ReclaimCost returns the cost of one background block reclamation that
// copies livePages and erases one block; used to convert idle time into
// reclamation progress.
func (m *CostModel) ReclaimCost(livePages int) time.Duration {
	return div(time.Duration(livePages)*(m.ReadPage+m.ProgramPage), m.MergeParallel) + div(m.EraseBlock, m.EraseParallel)
}

// Translator is the behaviour common to both FTL designs, and to the
// WriteCache that wraps them. Offsets and lengths are in bytes relative to
// the start of the logical address space.
type Translator interface {
	// Read translates and services a read, returning the operations
	// performed.
	Read(off, length int64) (Ops, error)
	// Write translates and services a write.
	Write(off, length int64) (Ops, error)
	// Idle informs the layer that the host left the device idle for d;
	// asynchronous reclamation happens here.
	Idle(d time.Duration)
	// Capacity returns the logical byte capacity exposed upward.
	Capacity() int64
	// Clone returns a deep copy of the layer — maps, pools, buffers, stats
	// and the flash underneath — that evolves independently of the
	// original. Driving the clone and the original with the same IO
	// sequence yields identical Ops, errors and stats, which is what lets
	// the engine enforce a device state once and snapshot it per shard.
	Clone() Translator
}

// Serve performs a read, or a write when write is set, of length bytes at off
// on t and adds the operations it performed to ops (after a failure ops may
// hold part of them). It is how a layer calls the one below it, and how a
// device calls its stack: the layers of this package run in place on ops, any
// other Translator through Read or Write plus Ops.Add.
//
//uflint:hotpath
func Serve(t Translator, write bool, off, length int64, ops *Ops) error {
	switch t := t.(type) {
	case *WriteCache:
		if write {
			return t.write(off, length, ops)
		}
		return t.read(off, length, ops)
	case *PageFTL:
		if write {
			return t.write(off, length, ops)
		}
		return t.read(off, length, ops)
	case *BlockFTL:
		if write {
			return t.write(off, length, ops)
		}
		return t.read(off, length, ops)
	}
	var o Ops
	var err error
	if write {
		o, err = t.Write(off, length)
	} else {
		o, err = t.Read(off, length)
	}
	ops.Add(o)
	return err
}

// Errors returned by the translation layers.
var (
	ErrOutOfRange = errors.New("ftl: IO beyond logical capacity")
	ErrNoSpace    = errors.New("ftl: no free flash blocks (device over-committed)")
)

// Stats aggregates FTL-level counters across the life of the device.
type Stats struct {
	HostReads        int64 // host read requests
	HostWrites       int64 // host write requests
	HostPagesWritten int64 // host pages spanned by write requests
	PagesRead        int64
	PagesProgrammed  int64
	BlocksErased     int64
	Merges           int64 // full merges (block FTL) / blocks reclaimed (page FTL)
	SwitchMerges     int64 // merges that needed no copying (block fully obsolete; every page FTL reclamation)
	AsyncReclaims    int64 // reclamations absorbed by idle time
	MapFlushes       int64
}

// WriteAmplification returns flash pages programmed per host page written,
// the canonical FTL efficiency metric. Returns 0 before any host write.
func (s Stats) WriteAmplification() float64 {
	if s.HostPagesWritten == 0 {
		return 0
	}
	return float64(s.PagesProgrammed) / float64(s.HostPagesWritten)
}

// negative reports whether any counter is below zero, which no run produces.
func (s Stats) negative() bool {
	return s.HostReads|s.HostWrites|s.HostPagesWritten|s.PagesRead|s.PagesProgrammed|s.BlocksErased|s.Merges|s.SwitchMerges|s.AsyncReclaims|s.MapFlushes < 0
}

// isPow2 reports whether n is a power of two. Every size the layers index by
// — page, block, cache line and region — must be one, so that the hot
// paths address by shift and mask.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// log2 returns the exponent of the power of two n.
func log2(n int) uint { return uint(bits.TrailingZeros(uint(n))) }

func checkRange(off, length, capacity int64) error {
	if off < 0 || length < 0 || off+length > capacity {
		return fmt.Errorf("%w: [%d,+%d) capacity %d", ErrOutOfRange, off, length, capacity)
	}
	return nil
}

// chargeReadRun prices a run of n physically consecutive page reads starting
// at physical page physSlot. Within the run every page follows its
// predecessor, so only the run's first page can continue the stream that
// ended at *last (pipelined like the rest) or, as the request's first flash
// read, pay a seek. It leaves *last at the run's final page.
func chargeReadRun(ops *Ops, last *int64, physSlot int64, n int, firstInRequest bool, seek time.Duration) {
	ops.PageReads += n
	ops.SeqPageReads += n - 1
	if physSlot == *last+1 {
		ops.SeqPageReads++
	} else if firstInRequest {
		ops.Stall += seek
	}
	*last = physSlot + int64(n) - 1
}
