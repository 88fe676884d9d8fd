package ftl

import (
	"slices"
	"testing"
)

// minHeap is the textbook binary min-heap — sift-up push, sift-down pop — and
// the oracle the blockQueue's Floyd pop is held to: with unique keys both
// leave the same layout, so the free pools' heap arrays, which are state
// bytes, are those of the textbook heap.
type minHeap struct {
	items []uint64
}

func (h *minHeap) push(x uint64) {
	h.items = append(h.items, x)
	i := len(h.items) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h.items[parent] <= x {
			break
		}
		h.items[i] = h.items[parent]
		i = parent
	}
	h.items[i] = x
}

func (h *minHeap) pop() uint64 {
	top := h.items[0]
	n := len(h.items) - 1
	x := h.items[n]
	h.items = h.items[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.items[r] < h.items[l] {
			m = r
		}
		if h.items[m] >= x {
			break
		}
		h.items[i] = h.items[m]
		i = m
	}
	if n > 0 {
		h.items[i] = x
	}
	return top
}

// FuzzVictimQueueMatchesLazyHeap drives a blockQueue the way the FTLs drive
// their free pools — a block is pushed under its current wear, popped, and
// may be pushed again one erase later — against a sorted model of the queued
// keys and the textbook heap. After every step the queue's length and top are
// the model's, every pop returns the model's minimum, and the heap array is
// the textbook heap's. (The name is that of the queue's first oracle, a lazy
// heap; the PageFTL's reclamation candidates are a wearQueue, fuzzed by
// FuzzWearQueueMatchesSorted.)
func FuzzVictimQueueMatchesLazyHeap(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x20, 0x01, 0x11, 0x21, 0x02, 0x12, 0x03, 0x03, 0x03})
	f.Add([]byte{0x00, 0x02, 0x04, 0x06, 0x01, 0x00, 0x01, 0x00, 0x03, 0x01})
	// Erase counts at the top of the key's erase field.
	f.Add([]byte{0xff, 0x00, 0x10, 0x01, 0x11, 0x02, 0x12, 0x03, 0x00, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, in []byte) {
		const blocks = 128
		base := 0
		if len(in) > 0 && in[0] == 0xff {
			base = 1<<keyEraseBits - 2 - len(in) // every erase below stays inside the field
			in = in[1:]
		}
		var q blockQueue
		var oracle minHeap
		var model []uint64 // the queued keys, ascending
		queued := make([]bool, blocks)
		erases := make([]int, blocks)
		for b := range erases {
			erases[b] = base
		}
		for step, c := range in {
			if b := int(c >> 1); c&1 == 0 {
				if queued[b] {
					continue
				}
				k := packKey(erases[b], b)
				q.push(k)
				oracle.push(k)
				i, _ := slices.BinarySearch(model, k)
				model = slices.Insert(model, i, k)
				queued[b] = true
			} else if len(model) > 0 {
				got, want := q.pop(), model[0]
				if got != want || oracle.pop() != want {
					t.Fatalf("step %d: popped %#x, want %#x", step, got, want)
				}
				model = model[1:]
				b := int(got & keyBlockMask)
				queued[b] = false
				erases[b]++
			}
			if q.Len() != len(model) || (len(model) > 0 && q.Keys[0] != model[0]) {
				t.Fatalf("step %d: queue holds %d keys, top %#x; model %d, %v", step, q.Len(), q.Keys, len(model), model)
			}
			if !slices.Equal(q.Keys, oracle.items) {
				t.Fatalf("step %d: heap layout %v, sift-down leaves %v", step, q.Keys, oracle.items)
			}
		}
	})
}

func TestBlockQueueKeyWidthGuard(t *testing.T) {
	if err := checkKeyWidths(1<<keyBlockBits, 1_000_000); err != nil {
		t.Fatalf("widest supported array rejected: %v", err)
	}
	for _, c := range []struct{ blocks, eraseLimit int }{
		{1<<keyBlockBits + 1, 100_000},
		{1024, 1<<keyEraseBits - 1},
	} {
		if checkKeyWidths(c.blocks, c.eraseLimit) == nil {
			t.Errorf("checkKeyWidths(%d, %d) accepted fields wider than the key", c.blocks, c.eraseLimit)
		}
	}
	// The extremes of every field survive the packing and order by field.
	if hi := packKey(1<<keyEraseBits-1, keyBlockMask); hi != 1<<(keyEraseBits+keyBlockBits)-1 {
		t.Fatalf("packed maxima = %#x", hi)
	}
	if !(packKey(0, keyBlockMask) < packKey(1, 0) && packKey(7, 3) < packKey(7, 4)) {
		t.Fatal("key order is not (eraseCount, block)")
	}
}

// TestMinHeapMatchesReference drives the block queue against a straight
// re-sorted reference on a pseudo-random push/pop mix.
func TestMinHeapMatchesReference(t *testing.T) {
	const blocks = 512
	var q blockQueue
	ref := make(map[int]uint64) // block -> key
	z := uint64(12345)
	next := func() uint64 {
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
		return z
	}
	refMin := func() uint64 {
		best := ^uint64(0)
		for _, k := range ref {
			best = min(best, k)
		}
		return best
	}
	for i := 0; i < 20000; i++ {
		b := int(next() % blocks)
		if _, queued := ref[b]; next()%3 == 0 && len(ref) > 0 {
			want := refMin()
			if got := q.pop(); got != want {
				t.Fatalf("op %d: popped %#x, want %#x", i, got, want)
			}
			delete(ref, int(want&keyBlockMask))
		} else if !queued {
			k := packKey(int(next()%64), b)
			q.push(k)
			ref[b] = k
		}
		if q.Len() != len(ref) {
			t.Fatalf("op %d: Len %d, want %d", i, q.Len(), len(ref))
		}
		if len(ref) > 0 && q.Keys[0] != refMin() {
			t.Fatalf("op %d: top %#x, want %#x", i, q.Keys[0], refMin())
		}
	}
	for len(ref) > 0 {
		want := refMin()
		if got := q.pop(); got != want {
			t.Fatalf("drain: popped %#x, want %#x", got, want)
		}
		delete(ref, int(want&keyBlockMask))
	}
}

// TestMinHeapZeroAlloc pins the allocation-free property of the block queue:
// once the key slice has grown, push/pop cycles allocate nothing.
func TestMinHeapZeroAlloc(t *testing.T) {
	var q blockQueue
	for i := 0; i < 256; i++ {
		q.push(packKey(i%7, i))
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		b := int(q.pop() & keyBlockMask)
		q.push(packKey(i%5+8, b))
		i++
	})
	if allocs != 0 {
		t.Fatalf("queue push/pop allocates %.1f times per op, want 0", allocs)
	}
	if q.Len() != 256 {
		t.Fatalf("%d blocks queued, want 256", q.Len())
	}
}
