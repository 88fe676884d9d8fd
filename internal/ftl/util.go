package ftl

import "fmt"

// A queue key packs a block's priority and its number into one uint64, most
// significant field first, so comparing two keys as integers is the FTLs'
// strict total order: fewest live units (greedy victim choice; always zero in
// a free pool), then lowest erase count (wear-aware choice, and dynamic wear
// leveling when allocating), then lowest block number.
const (
	keyBlockBits = 24
	keyEraseBits = 24
	keyLiveBits  = 64 - keyEraseBits - keyBlockBits

	keyBlockMask = 1<<keyBlockBits - 1
)

func packKey(live, eraseCount, block int) uint64 {
	return uint64(live)<<(keyEraseBits+keyBlockBits) | uint64(eraseCount)<<keyBlockBits | uint64(block)
}

// checkKeyWidths guards the packing: the array's block numbers, the largest
// erase count a block can reach (one past the budget, when it is marked bad)
// and the largest live count must each fit their field.
func checkKeyWidths(blocks, eraseLimit, maxLive int) error {
	if blocks > 1<<keyBlockBits || eraseLimit+1 >= 1<<keyEraseBits || maxLive >= 1<<keyLiveBits {
		return fmt.Errorf("ftl: %d blocks / erase budget %d / %d units per block exceed the block queue's %d/%d/%d-bit key fields",
			blocks, eraseLimit, maxLive, keyBlockBits, keyEraseBits, keyLiveBits)
	}
	return nil
}

// blockQueue is an indexed binary min-heap of packed keys holding at most one
// entry per block: pos finds a block's entry, so a block whose priority drops
// is re-keyed where it sits and a block that leaves the set is removed, and
// Len is exactly the number of queued blocks. The free pools of both FTLs and
// the PageFTL's garbage-collection candidates are blockQueues. Keys are unique
// (the block number is part of the key), so the pop order depends only on the
// set of keys, never on the heap's internal layout. Steady-state operations
// allocate nothing: keys grows to the high-water mark and stays.
type blockQueue struct {
	keys []uint64
	pos  []int32 // block -> index into keys, -1 when the block is not queued
}

func newBlockQueue(blocks int) blockQueue {
	q := blockQueue{pos: make([]int32, blocks)}
	for i := range q.pos {
		q.pos[i] = -1
	}
	return q
}

// Len returns the number of queued blocks.
func (q *blockQueue) Len() int { return len(q.keys) }

// min returns the smallest key; the queue must not be empty.
func (q *blockQueue) min() uint64 { return q.keys[0] }

// contains reports whether block is queued.
func (q *blockQueue) contains(block int) bool { return q.pos[block] >= 0 }

// push queues key's block under key, or lowers the key the block is already
// queued under (a queued block's priority only ever drops: closed blocks
// never gain live units).
//
//uflint:hotpath
func (q *blockQueue) push(key uint64) {
	i := int(q.pos[key&keyBlockMask])
	if i < 0 {
		i = len(q.keys)
		q.keys = append(q.keys, key)
	}
	q.up(i, key)
}

// pop removes and returns the smallest key; the queue must not be empty.
//
//uflint:hotpath
func (q *blockQueue) pop() uint64 {
	top := q.keys[0]
	q.removeAt(0)
	return top
}

// remove takes block out of the queue if it is there.
//
//uflint:hotpath
func (q *blockQueue) remove(block int) {
	if i := int(q.pos[block]); i >= 0 {
		q.removeAt(i)
	}
}

// removeAt deletes the entry at index i, re-seating the last entry in its
// place.
func (q *blockQueue) removeAt(i int) {
	q.pos[q.keys[i]&keyBlockMask] = -1
	n := len(q.keys) - 1
	last := q.keys[n]
	q.keys = q.keys[:n]
	if i == n {
		return
	}
	if i > 0 && last < q.keys[(i-1)/2] {
		q.up(i, last)
	} else {
		q.down(i, last)
	}
}

// up seats key at index i or above. Both sifts move a hole instead of
// swapping: each level costs one key copy and one pos update.
func (q *blockQueue) up(i int, key uint64) {
	for i > 0 {
		parent := (i - 1) / 2
		p := q.keys[parent]
		if p <= key {
			break
		}
		q.keys[i] = p
		q.pos[p&keyBlockMask] = int32(i)
		i = parent
	}
	q.keys[i] = key
	q.pos[key&keyBlockMask] = int32(i)
}

// down seats key at index i or below.
func (q *blockQueue) down(i int, key uint64) {
	n := len(q.keys)
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && q.keys[r] < q.keys[l] {
			m = r
		}
		c := q.keys[m]
		if c >= key {
			break
		}
		q.keys[i] = c
		q.pos[c&keyBlockMask] = int32(i)
		i = m
	}
	q.keys[i] = key
	q.pos[key&keyBlockMask] = int32(i)
}

// reset empties the queue, keeping its buffers.
func (q *blockQueue) reset() {
	for _, k := range q.keys {
		q.pos[k&keyBlockMask] = -1
	}
	q.keys = q.keys[:0]
}

// resetFrom makes q a copy of src, reusing q's buffers.
func (q *blockQueue) resetFrom(src *blockQueue) {
	q.keys = append(q.keys[:0], src.keys...)
	q.pos = append(q.pos[:0], src.pos...)
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
	unitsPerPage int64    //uflint:shared — derived from the geometry
	limit        int      //uflint:shared — immutable config
	dirty        []uint64 //uflint:scratch — the ring's queued window as a bitset over map pages, derived from it (restore)
	order        []int64  // ring buffer of dirty map pages, FIFO
	head, queued int
	lastFlushed  int64
}

// newMapBook sizes the book for a map of units entries.
func newMapBook(unitsPerPage int64, limit int, units int64) mapBook {
	if unitsPerPage < 1 {
		unitsPerPage = 1
	}
	if limit < 1 {
		limit = 1
	}
	pages := (units + unitsPerPage - 1) / unitsPerPage
	return mapBook{
		unitsPerPage: unitsPerPage,
		limit:        limit,
		dirty:        make([]uint64, (pages+63)/64),
		order:        make([]int64, limit+1),
		lastFlushed:  -2,
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
	page := unit / b.unitsPerPage
	if !b.setDirty(page) {
		return
	}
	tail := b.head + b.queued
	if tail >= len(b.order) {
		tail -= len(b.order)
	}
	b.order[tail] = page
	b.queued++
	// The dirty set is exactly the ring's queued window.
	if b.queued > b.limit {
		victim := b.order[b.head]
		if b.head++; b.head == len(b.order) {
			b.head = 0
		}
		b.queued--
		b.dirty[victim>>6] &^= 1 << (uint(victim) & 63)
		if victim == b.lastFlushed+1 || victim == b.lastFlushed {
			ops.SeqMapFlushes++
		} else {
			ops.MapFlushes++
		}
		b.lastFlushed = victim
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
func (b *mapBook) dirtyCount() int { return b.queued }

// resetFrom makes b an independent copy of src, reusing b's ring and bitset.
func (b *mapBook) resetFrom(src *mapBook) {
	b.unitsPerPage, b.limit = src.unitsPerPage, src.limit
	b.dirty = append(b.dirty[:0], src.dirty...)
	b.order = append(b.order[:0], src.order...)
	b.head, b.queued, b.lastFlushed = src.head, src.queued, src.lastFlushed
}
