package ftl

// ordered is the constraint of the FTL's min-heaps: each element knows how to
// compare itself to another of its kind.
type ordered[T any] interface{ before(T) bool }

// minHeap is a binary min-heap specialised per element type, replacing
// container/heap: Push and Pop move concrete values instead of boxing every
// element through interface{}, so the steady-state allocation-and-GC path of
// the FTLs allocates nothing (the backing slice only grows until the working
// set's high-water mark).
type minHeap[T ordered[T]] struct {
	items []T
}

// Len returns the number of elements.
func (h *minHeap[T]) Len() int { return len(h.items) }

// Push adds x, restoring the heap invariant. Both sifts move a hole instead
// of swapping: each level costs one element copy, and the displaced element
// is written once, at its final position.
//
//uflint:hotpath
func (h *minHeap[T]) Push(x T) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !x.before(h.items[parent]) {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = x
}

// Peek returns the minimum element without removing it; it must not be
// called on an empty heap.
func (h *minHeap[T]) Peek() T { return h.items[0] }

// Pop removes and returns the minimum element; it must not be called on an
// empty heap.
//
//uflint:hotpath
func (h *minHeap[T]) Pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	x := h.items[n] // the last element, to be re-seated from the root down
	var zero T
	h.items[n] = zero
	h.items = h.items[:n]
	if n == 0 {
		return top
	}
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.items[r].before(h.items[l]) {
			m = r
		}
		if !h.items[m].before(x) {
			break
		}
		h.items[i] = h.items[m]
		i = m
	}
	h.items[i] = x
	return top
}

// clone returns an independent copy of the heap.
func (h *minHeap[T]) clone() *minHeap[T] {
	return &minHeap[T]{items: append([]T(nil), h.items...)}
}

// freeBlock is an entry in the pre-erased pool, ordered by erase count so
// allocation doubles as dynamic wear leveling (the least-worn free block is
// always handed out first).
type freeBlock struct {
	block      int
	eraseCount int
}

func (a freeBlock) before(b freeBlock) bool {
	if a.eraseCount != b.eraseCount {
		return a.eraseCount < b.eraseCount
	}
	return a.block < b.block
}

type freeHeap = minHeap[freeBlock]

// victimBlock is a garbage-collection candidate, ordered by live unit count
// (greedy policy) with erase count as tie-break (wear-aware victim choice).
// The heap is lazy: counts may be stale and are re-validated on pop, and a
// generation number guards against ghost entries from a block's previous
// life (a block can be closed, collected, erased, reallocated and closed
// again while an old entry still sits in the heap).
type victimBlock struct {
	block      int
	live       int
	eraseCount int
	gen        int32
}

func (a victimBlock) before(b victimBlock) bool {
	if a.live != b.live {
		return a.live < b.live
	}
	if a.eraseCount != b.eraseCount {
		return a.eraseCount < b.eraseCount
	}
	return a.block < b.block
}

type victimHeap = minHeap[victimBlock]

// mapBook models the on-flash direct map of Section 2.2: each map page
// covers unitsPerPage consecutive mapping entries; dirty map pages are
// buffered in controller RAM up to limit, then flushed to flash. Scattered
// writes touch many distinct map pages and therefore flush often, while
// focused writes amortize their bookkeeping — the mechanism behind the extra
// cost of large-increment ordered patterns.
//
// The FIFO of dirty pages lives in a fixed ring (at most limit+1 pages are
// ever dirty), so steady-state touches never allocate.
type mapBook struct {
	unitsPerPage int64              //uflint:shared — derived from the geometry
	limit        int                //uflint:shared — immutable config
	dirty        map[int64]struct{} //uflint:scratch — Snapshot carries the ring; Restore rebuilds the set from it
	order        []int64            // ring buffer of dirty map pages, FIFO
	head, queued int
	lastFlushed  int64
}

func newMapBook(unitsPerPage int64, limit int) mapBook {
	if unitsPerPage < 1 {
		unitsPerPage = 1
	}
	if limit < 1 {
		limit = 1
	}
	return mapBook{
		unitsPerPage: unitsPerPage,
		limit:        limit,
		dirty:        make(map[int64]struct{}, limit+1),
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
	if _, ok := b.dirty[page]; ok {
		return
	}
	b.dirty[page] = struct{}{}
	b.order[(b.head+b.queued)%len(b.order)] = page
	b.queued++
	if len(b.dirty) > b.limit {
		victim := b.order[b.head]
		b.head = (b.head + 1) % len(b.order)
		b.queued--
		delete(b.dirty, victim)
		if victim == b.lastFlushed+1 || victim == b.lastFlushed {
			ops.SeqMapFlushes++
		} else {
			ops.MapFlushes++
		}
		b.lastFlushed = victim
	}
}

// dirtyCount reports the number of buffered dirty map pages (for tests).
func (b *mapBook) dirtyCount() int { return len(b.dirty) }

// clone returns an independent copy of the book.
func (b *mapBook) clone() mapBook {
	g := *b
	g.dirty = make(map[int64]struct{}, len(b.dirty)+1)
	for k := range b.dirty {
		g.dirty[k] = struct{}{}
	}
	g.order = append([]int64(nil), b.order...)
	return g
}
