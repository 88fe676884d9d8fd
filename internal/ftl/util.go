package ftl

import (
	"fmt"
	"slices"
)

// MapBookState is the map book as data: the FIFO ring of dirty map pages. The
// dirty set is exactly the ring's window of Queued pages starting at Head.
type MapBookState struct {
	Order        []int64
	Head, Queued int
	LastFlushed  int64
}

func (s *MapBookState) copyFrom(src *MapBookState) {
	s.Order = append(s.Order[:0], src.Order...)
	s.Head, s.Queued, s.LastFlushed = src.Head, src.Queued, src.LastFlushed
}

// audit states the book's invariant: a ring of the configured size, its
// indexes in range, and a queued window of distinct pages of the map.
func (s *MapBookState) audit(cfg *mapBookConfig) error {
	if len(s.Order) != cfg.limit+1 || s.Head < 0 || s.Head >= len(s.Order) || s.Queued < 0 || s.Queued > cfg.limit || s.LastFlushed < -2 || s.LastFlushed >= cfg.pages {
		return fmt.Errorf("ftl: map book ring (size %d, head %d, %d queued, last flushed %d) does not fit a book of %d dirty pages over %d", len(s.Order), s.Head, s.Queued, s.LastFlushed, cfg.limit, cfg.pages)
	}
	seen := make(map[int64]bool, s.Queued)
	for i := 0; i < s.Queued; i++ {
		page := s.Order[(s.Head+i)%len(s.Order)]
		if page < 0 || page >= cfg.pages || seen[page] {
			return fmt.Errorf("ftl: map book queues map page %d: outside [0,%d) or queued twice", page, cfg.pages)
		}
		seen[page] = true
	}
	return nil
}

// mapBookConfig is fixed at construction: mapping entries per map page, dirty
// map pages the controller buffers, map pages in all.
type mapBookConfig struct {
	unitsPerPage int64
	limit        int
	pages        int64
}

// mapBook models the on-flash direct map of Section 2.2: each map page
// covers unitsPerPage consecutive mapping entries; dirty map pages are
// buffered in controller RAM up to limit, then flushed to flash. Scattered
// writes touch many distinct map pages and therefore flush often, while
// focused writes amortize their bookkeeping — the mechanism behind the extra
// cost of large-increment ordered patterns.
//
// The FIFO of dirty pages lives in a fixed ring (at most limit+1 pages are
// ever dirty) and the dirty set is a bitset over the map pages, sized once at
// construction from the unit count, so a touch never allocates or hashes.
type mapBook struct {
	cfg mapBookConfig
	MapBookState
	dirty []uint64 // the ring's queued window as a bitset over map pages: derived (rederive)
}

// newMapBook sizes the book for a map of units entries; unitsPerPage and limit
// are at least 1 (the FTLs' validators see to it).
func newMapBook(unitsPerPage int64, limit int, units int64) mapBook {
	b := mapBook{
		cfg:          mapBookConfig{unitsPerPage: unitsPerPage, limit: limit, pages: (units + unitsPerPage - 1) / unitsPerPage},
		MapBookState: MapBookState{Order: make([]int64, limit+1), LastFlushed: -2},
	}
	b.rederive()
	return b
}

// rederive rebuilds the dirty bitset from the ring.
func (b *mapBook) rederive() {
	if words := int((b.cfg.pages + 63) / 64); len(b.dirty) != words {
		b.dirty = make([]uint64, words)
	}
	clear(b.dirty)
	for i := 0; i < b.Queued; i++ {
		b.setDirty(b.Order[(b.Head+i)%len(b.Order)])
	}
}

// checkDerived reports whether the dirty bitset is what rederive builds from
// the ring.
func (b *mapBook) checkDerived() error {
	want := mapBook{cfg: b.cfg, MapBookState: b.MapBookState}
	want.rederive()
	if !slices.Equal(b.dirty, want.dirty) {
		return fmt.Errorf("ftl: the map book's dirty set is not the window of %d pages its ring queues", b.Queued)
	}
	return nil
}

// touch records that the map entry for unit changed, charging a flush to ops
// when the dirty budget is exceeded. Flushing map pages in address order is
// itself a sequential write and stays cheap (one page program); it is the
// scattered map-page flushes — random or strided data writes hopping between
// map pages — that pay the full bookkeeping-block cycle.
//
//uflint:hotpath
func (b *mapBook) touch(unit int64, ops *Ops) {
	page := unit / b.cfg.unitsPerPage
	if !b.setDirty(page) {
		return
	}
	tail := b.Head + b.Queued
	if tail >= len(b.Order) {
		tail -= len(b.Order)
	}
	b.Order[tail] = page
	b.Queued++
	// The dirty set is exactly the ring's queued window.
	if b.Queued > b.cfg.limit {
		victim := b.Order[b.Head]
		if b.Head++; b.Head == len(b.Order) {
			b.Head = 0
		}
		b.Queued--
		b.dirty[victim>>6] &^= 1 << (uint(victim) & 63)
		if victim == b.LastFlushed+1 || victim == b.LastFlushed {
			ops.SeqMapFlushes++
		} else {
			ops.MapFlushes++
		}
		b.LastFlushed = victim
	}
}

// setDirty marks map page dirty and reports whether it was clean.
func (b *mapBook) setDirty(page int64) bool {
	w, bit := page>>6, uint64(1)<<(uint(page)&63)
	if b.dirty[w]&bit != 0 {
		return false
	}
	b.dirty[w] |= bit
	return true
}

// flashBooks is what both FTLs stand on, each part keeping its own state: the
// flash, the pool of erased blocks and the map book.
type flashBooks struct {
	arr *Array
	// free is the pool of erased blocks, each under its current wear: neither
	// configuration nor state but a function of the FTL's state and the
	// flash, which the FTL's rederive rebuilds.
	free wearQueue
	book mapBook
}

// FreeBlocks returns the current size of the pre-erased pool (for tests and
// the state/ablation experiments).
func (b *flashBooks) FreeBlocks() int { return b.free.Len() }

// pushFree returns the just-erased block to the pool under its current wear.
func (b *flashBooks) pushFree(block int) {
	ec, _ := b.arr.EraseCount(block)
	b.free.push(packKey(ec, block))
}

// resetBooks makes b a deep copy of src, reusing b's flash and buffers; b may
// be a zero value. src holds its pool derived: copying it costs the pool,
// rederiving it every block of the array.
func (b *flashBooks) resetBooks(src *flashBooks) {
	if b.arr == nil {
		b.arr = &Array{}
	}
	b.arr.resetFrom(src.arr)
	b.free.copyFrom(&src.free)
	b.book.cfg = src.book.cfg
	b.loadBook(&src.book.MapBookState)
}

// loadBook copies the map book's state in and rebuilds its dirty set from its
// ring.
func (b *flashBooks) loadBook(book *MapBookState) {
	b.book.copyFrom(book)
	b.book.rederive()
}

// checkBooks validates the part of a state tree under an FTL.
func (b *flashBooks) checkBooks(s *TranslatorState) error {
	if s.Book == nil {
		return fmt.Errorf("ftl: state lacks the FTL's map book")
	}
	if err := b.arr.chip.Check(s.Arr); err != nil {
		return err
	}
	return s.Book.audit(&b.book.cfg)
}
