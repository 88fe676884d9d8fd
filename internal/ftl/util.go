package ftl

import "fmt"

// A queue key packs a block's erase count and its number into one uint64, most
// significant field first, so comparing two keys as integers is the FTLs'
// strict total order: lowest erase count (wear-aware choice, and dynamic wear
// leveling when allocating), then lowest block number.
const (
	keyBlockBits = 24
	keyEraseBits = 24
	keyBlockMask = 1<<keyBlockBits - 1
)

func packKey(eraseCount, block int) uint64 {
	return uint64(eraseCount)<<keyBlockBits | uint64(block)
}

// checkKeyWidths guards the packing: the array's block numbers and the largest
// erase count a block can reach (one past the budget, when it is marked bad)
// must each fit their field.
func checkKeyWidths(blocks, eraseLimit int) error {
	if blocks > 1<<keyBlockBits || eraseLimit+1 >= 1<<keyEraseBits {
		return fmt.Errorf("ftl: %d blocks / erase budget %d exceed the block queue's %d/%d-bit key fields",
			blocks, eraseLimit, keyBlockBits, keyEraseBits)
	}
	return nil
}

// QueueState is a block queue as data: the heap array of packed keys, kept
// verbatim though only the set of keys is observable.
type QueueState struct {
	Keys []uint64
}

func (s *QueueState) copyFrom(src *QueueState) {
	s.Keys = append(s.Keys[:0], src.Keys...)
}

// audit states the invariant of a free pool over flash in the valid state
// arr: keys in heap order, one per block at most, each a usable erased block
// under its current wear.
func (s *QueueState) audit(arr *ArrayState) error {
	seen := make([]bool, arr.blocks())
	for i, k := range s.Keys {
		b := int(k & keyBlockMask)
		if b >= len(seen) || seen[b] || (i > 0 && s.Keys[(i-1)/2] > k) {
			return fmt.Errorf("ftl: free-pool entry %d (block %d) is out of range, queued twice or out of heap order", i, b)
		}
		seen[b] = true
		if bs := arr.block(b); k != packKey(int(bs.EraseCount), b) || bs.NextPage != 0 || bs.Bad {
			return fmt.Errorf("ftl: free-pool key %#x names block %d, which is not a usable erased block of that wear", k, b)
		}
	}
	return nil
}

// blockQueue is a binary min-heap of packed keys: the free pools of both FTLs
// and the PageFTL's reclamation candidates. A block enters a queue once under
// the key it then has and leaves it by pop; nothing is re-keyed or removed.
// Keys are unique (the block number is part of the key), so the pop order
// depends only on the set of keys, never on the heap's layout. Steady-state
// operations allocate nothing: Keys grows to the high-water mark and stays.
type blockQueue struct {
	QueueState
}

// Len returns the number of queued blocks.
func (q *blockQueue) Len() int { return len(q.Keys) }

// push queues key, sifting it up from the bottom.
//
//uflint:hotpath
func (q *blockQueue) push(key uint64) {
	q.Keys = append(q.Keys, key)
	q.up(len(q.Keys)-1, key)
}

// pop removes and returns the smallest key; the queue must not be empty. The
// hole at the root sinks to a leaf along the smaller children and the last
// entry rises from there (Floyd): fewer comparisons than sifting the last
// entry down from the root, and with unique keys exactly the layout that
// sift-down leaves.
//
//uflint:hotpath
func (q *blockQueue) pop() uint64 {
	top := q.Keys[0]
	n := len(q.Keys) - 1
	last := q.Keys[n]
	q.Keys = q.Keys[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && q.Keys[c+1] < q.Keys[c] {
			c++
		}
		q.Keys[i] = q.Keys[c]
		i = c
	}
	q.up(i, last)
	return top
}

// up seats key at index i or above, moving a hole instead of swapping.
func (q *blockQueue) up(i int, key uint64) {
	for i > 0 {
		parent := (i - 1) / 2
		p := q.Keys[parent]
		if p <= key {
			break
		}
		q.Keys[i] = p
		i = parent
	}
	q.Keys[i] = key
}

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

// newMapBook sizes the book for a map of units entries.
func newMapBook(unitsPerPage int64, limit int, units int64) mapBook {
	if unitsPerPage < 1 {
		unitsPerPage = 1
	}
	if limit < 1 {
		limit = 1
	}
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

// dirtyCount reports the number of buffered dirty map pages (for tests).
func (b *mapBook) dirtyCount() int { return b.Queued }

// flashBooks is what both FTLs stand on, each part keeping its own state: the
// chips, the pool of erased blocks and the map book.
type flashBooks struct {
	arr  *Array
	free blockQueue
	book mapBook

	// Data-plane scratch (flash built with data storage only), reset with the
	// books: the pending host bytes of the WriteData call in flight, alive
	// only within it, and a one-block staging buffer for the payload of a
	// program run, its contents dead between calls.
	pending    []byte
	pendingOff int64
	staging    []byte
}

// newFlashBooks puts every block of the factory-fresh arr in the pool.
func newFlashBooks(arr *Array, mapUnitsPerPage, mapDirtyLimit int, units int64) flashBooks {
	b := flashBooks{arr: arr, book: newMapBook(int64(mapUnitsPerPage), mapDirtyLimit, units)}
	for blk := 0; blk < arr.Blocks(); blk++ {
		b.free.push(packKey(0, blk))
	}
	b.rederiveBooks()
	return b
}

// StoresData reports whether the flash underneath retains payloads.
func (b *flashBooks) StoresData() bool { return b.staging != nil }

// FreeBlocks returns the current size of the pre-erased pool (for tests and
// the state/ablation experiments).
func (b *flashBooks) FreeBlocks() int { return b.free.Len() }

// pushFree returns the just-erased block to the pool under its current wear.
func (b *flashBooks) pushFree(block int) {
	ec, _ := b.arr.EraseCount(block)
	b.free.push(packKey(ec, block))
}

// resetBooks makes b a deep copy of src, reusing b's chips and buffers; b may
// be a zero value.
func (b *flashBooks) resetBooks(src *flashBooks) {
	if b.arr == nil {
		b.arr = &Array{}
	}
	b.arr.resetFrom(src.arr)
	b.book.cfg = src.book.cfg
	b.loadBooks(&src.free.QueueState, &src.book.MapBookState)
}

// loadBooks copies pool and book states in and rederives the rest.
func (b *flashBooks) loadBooks(free *QueueState, book *MapBookState) {
	b.free.copyFrom(free)
	b.book.copyFrom(book)
	b.rederiveBooks()
}

// rederiveBooks rebuilds the book's dirty set from its state and resets the
// data-plane scratch, which exists exactly when the chips store data.
func (b *flashBooks) rederiveBooks() {
	b.book.rederive()
	b.pending, b.pendingOff = nil, 0
	if size := b.arr.Geometry().BlockSize(); !b.arr.StoresData() {
		b.staging = nil
	} else if len(b.staging) != size {
		b.staging = make([]byte, size)
	}
}

// checkBooks validates the part of a state tree under an FTL.
func (b *flashBooks) checkBooks(s *TranslatorState) error {
	if s.Free == nil || s.Book == nil {
		return fmt.Errorf("ftl: state lacks the FTL's free pool or map book")
	}
	if err := b.arr.check(s.Arr); err != nil {
		return err
	}
	if err := s.Free.audit(s.Arr); err != nil {
		return err
	}
	return s.Book.audit(&b.book.cfg)
}
