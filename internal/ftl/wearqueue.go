package ftl

import (
	"fmt"
	"math/bits"
	"slices"
)

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
		return fmt.Errorf("ftl: %d blocks / erase budget %d exceed the wear queues' %d/%d-bit key fields",
			blocks, eraseLimit, keyBlockBits, keyEraseBits)
	}
	return nil
}

// wearQueue is a set of blocks as packed keys — the free pools of both FTLs
// and the PageFTL's reclamation candidates: it pops the smallest, the
// least-worn block and then the lowest block number, in constant time. A block
// enters a queue under the key it then has and leaves it by pop. Each erase
// count present has a bucket: a bitset over the blocks plus a summary with one
// bit per nonzero bitset word, so a bucket's lowest block is two trailing-zero
// counts away and a push sets two bits.
//
// The buckets sit in a ring indexed by erase count minus base, the lowest
// erase count queued; base+span-1 is the highest, and both ends of the span
// hold keys while the queue does. A bucket's bitset lives in a slot of one
// slab, taken when the bucket gets its first key and recycled when it
// empties, so memory follows the erase counts present, not their span.
// Steady-state operations allocate nothing.
type wearQueue struct {
	n      int // keys queued
	sums   int // summary words per bucket
	stride int // slab words per slot: the key count, the summary, the bitset

	// ring[(head+i)&(len(ring)-1)] names the bucket of erase count base+i
	// by its slot's offset in the slab plus one, 0 for no bucket; the ring's
	// length is a power of two and its entries outside the span are 0.
	ring             []uint64
	head, base, span int

	// slab holds the slots. A recycled slot is all zeros but its first
	// word, which links the next recycled slot, named like the ring does.
	slab     []uint64
	freeSlot uint64 // first recycled slot's offset plus one, 0 for none
}

// Len returns the number of queued keys.
func (q *wearQueue) Len() int { return q.n }

// reset empties q and sizes its buckets for keys of blocks [0, blocks),
// keeping its buffers.
func (q *wearQueue) reset(blocks int) {
	words := (blocks + 63) / 64
	q.sums = (words + 63) / 64
	q.stride = 1 + q.sums + words
	q.n, q.head, q.base, q.span, q.freeSlot = 0, 0, 0, 0, 0
	clear(q.ring)
	q.slab = q.slab[:0]
}

// copyFrom makes q a copy of src, reusing q's buffers. When either is too
// small, one allocation backs both: the ring's capacity ends where the slab
// starts, so neither can grow into the other.
func (q *wearQueue) copyFrom(src *wearQueue) {
	ring, slab := q.ring, q.slab
	if cap(ring) < len(src.ring) || cap(slab) < len(src.slab) {
		buf := make([]uint64, len(src.ring)+len(src.slab))
		ring, slab = buf[:0:len(src.ring)], buf[len(src.ring):len(src.ring)]
	}
	*q = *src
	q.ring = append(ring[:0], src.ring...)
	q.slab = append(slab[:0], src.slab...)
}

// push queues key, whose block must not be queued.
//
//uflint:hotpath
func (q *wearQueue) push(key uint64) {
	ec, b := int(key>>keyBlockBits), int(key&keyBlockMask)
	if uint(ec-q.base) >= uint(q.span) { // outside the span, or none
		q.widen(ec)
	}
	i := (q.head + ec - q.base) & (len(q.ring) - 1)
	if q.ring[i] == 0 {
		q.ring[i] = q.takeSlot()
	}
	off := int(q.ring[i] - 1)
	q.slab[off]++
	w := b >> 6
	q.slab[off+1+w>>6] |= 1 << (w & 63)
	q.slab[off+1+q.sums+w] |= 1 << (b & 63)
	q.n++
}

// pop removes and returns the smallest key; the queue must not be empty.
//
//uflint:hotpath
func (q *wearQueue) pop() uint64 {
	slot := q.ring[q.head]
	off := int(slot - 1)
	s := off + 1
	for q.slab[s] == 0 {
		s++
	}
	w := (s-off-1)<<6 | bits.TrailingZeros64(q.slab[s])
	word := &q.slab[off+1+q.sums+w]
	key := packKey(q.base, w<<6|bits.TrailingZeros64(*word))
	if *word &= *word - 1; *word == 0 {
		q.slab[s] &= q.slab[s] - 1
	}
	q.n--
	if q.slab[off]--; q.slab[off] == 0 {
		q.dropLowest(slot)
	}
	return key
}

// widen extends the span to erase count ec, growing the ring when the span
// outgrows it.
func (q *wearQueue) widen(ec int) {
	lo, hi := ec, ec
	if q.span > 0 {
		lo, hi = min(lo, q.base), max(hi, q.base+q.span-1)
	}
	if need := hi - lo + 1; need > len(q.ring) {
		ring := make([]uint64, max(8, 1<<bits.Len(uint(need-1))))
		for i := 0; i < q.span; i++ {
			ring[q.base-lo+i] = q.ring[(q.head+i)&(len(q.ring)-1)]
		}
		q.ring, q.head = ring, 0
	} else if q.span > 0 {
		q.head = (q.head - (q.base - lo)) & (len(q.ring) - 1)
	}
	q.base, q.span = lo, hi-lo+1
}

// takeSlot returns a zeroed slot's offset plus one: a recycled slot if any.
func (q *wearQueue) takeSlot() uint64 {
	if s := q.freeSlot; s != 0 {
		q.freeSlot, q.slab[s-1] = q.slab[s-1], 0
		return s
	}
	n := len(q.slab)
	q.slab = slices.Grow(q.slab, q.stride)[:n+q.stride]
	clear(q.slab[n:])
	return uint64(n + 1)
}

// dropLowest recycles slot, the emptied bucket at the start of the span, and
// moves the start to the next bucket that holds keys.
func (q *wearQueue) dropLowest(slot uint64) {
	q.slab[slot-1] = q.freeSlot
	q.freeSlot = slot
	q.ring[q.head] = 0
	for {
		q.head = (q.head + 1) & (len(q.ring) - 1)
		q.base++
		if q.span--; q.span == 0 || q.ring[q.head] != 0 {
			return
		}
	}
}

// appendKeys appends the queued keys to dst in ascending order. It fails when
// the ring, a bucket's key count or its summary disagrees with the bitsets.
func (q *wearQueue) appendKeys(dst []uint64) ([]uint64, error) {
	start := len(dst)
	for i := 0; i < q.span; i++ {
		slot := q.ring[(q.head+i)&(len(q.ring)-1)]
		if slot == 0 {
			if i == 0 || i == q.span-1 {
				return dst, fmt.Errorf("ftl: the wear queue's span [%d,%d] ends on an empty bucket", q.base, q.base+q.span-1)
			}
			continue
		}
		off := int(slot - 1)
		if off%q.stride != 0 || off+q.stride > len(q.slab) {
			return dst, fmt.Errorf("ftl: the wear queue's bucket for erase count %d names slab offset %d, which starts no slot", q.base+i, off)
		}
		sum, set := q.slab[off+1:off+1+q.sums], q.slab[off+1+q.sums:off+q.stride]
		held := len(dst)
		for w, word := range set {
			if (word != 0) != (sum[w>>6]&(1<<(w&63)) != 0) {
				return dst, fmt.Errorf("ftl: the wear queue's summary for erase count %d disagrees with bitset word %d", q.base+i, w)
			}
			for ; word != 0; word &= word - 1 {
				dst = append(dst, packKey(q.base+i, w<<6|bits.TrailingZeros64(word)))
			}
		}
		if held = len(dst) - held; held == 0 || uint64(held) != q.slab[off] {
			return dst, fmt.Errorf("ftl: the wear queue's bucket for erase count %d counts %d keys and holds %d", q.base+i, q.slab[off], held)
		}
	}
	if len(dst)-start != q.n {
		return dst, fmt.Errorf("ftl: the wear queue counts %d keys and holds %d", q.n, len(dst)-start)
	}
	return dst, nil
}

// checkDerived reports whether q holds, in ascending order, the keys of want:
// the queue rederived from the state q was derived from, named what.
func (q *wearQueue) checkDerived(what string, want *wearQueue) error {
	got, err := q.appendKeys(nil)
	if err != nil {
		return fmt.Errorf("%w (the %s)", err, what)
	}
	if keys, _ := want.appendKeys(nil); !slices.Equal(got, keys) {
		return fmt.Errorf("ftl: the %s queues %d blocks, not the %d its state derives", what, len(got), len(keys))
	}
	return nil
}
