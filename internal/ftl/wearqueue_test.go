package ftl

import (
	"slices"
	"testing"
)

// FuzzWearQueueMatchesSorted drives the wear queue against a sorted model of
// its keys. Each step takes an op byte — its top two bits pick push, pop,
// copy or reset, its low six an erase-count offset or a block count — and a
// push two more bytes for the block. Pushed erase counts reach 315 above the
// start, so spans outgrow the initial ring of 8 and a push can land below the
// lowest count queued. A pop with nonzero low bits pushes the popped block
// back one erase count higher, as a free pool's block returns after its next
// erase. An input starting 0xff starts just below the top of the key's erase
// field. A copy goes into a queue that held other keys, on other buffers, and
// the run continues on the copy; a reset changes the block count. After every
// step the queue's length and keys in order are the model's, and every pop
// returns the model's minimum.
func FuzzWearQueueMatchesSorted(f *testing.F) {
	f.Add([]byte{0x00, 0x00, 0x01, 0x02, 0x00, 0x02, 0x01, 0x00, 0x03, 0x40, 0x40, 0x40})
	// Wide spans, a push below the lowest count, then copy and drain.
	f.Add([]byte{0x3f, 0x00, 0x05, 0x00, 0x00, 0x06, 0x20, 0x01, 0x00, 0x80, 0x40, 0x01, 0x10, 0x40, 0x40, 0x40})
	// Erase counts at the top of the key's erase field, and resets.
	f.Add([]byte{0xff, 0x3f, 0x00, 0x01, 0x00, 0x00, 0x02, 0xc1, 0x3e, 0x10, 0x00, 0x40, 0xc2, 0x01, 0x01, 0x01, 0x40})
	// A pool: blocks at two erase counts, each popped and pushed back one
	// erase count higher, past the counts of the rest, then drained.
	f.Add([]byte{0x00, 0x00, 0x07, 0x00, 0x00, 0x03, 0x01, 0x00, 0x05, 0x01, 0x00, 0x01,
		0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x41, 0x40, 0x40, 0x40, 0x40})
	f.Fuzz(func(t *testing.T, in []byte) {
		sizes := [...]int{200, 64, 5000} // 5000 blocks take two summary words
		base := 0
		if len(in) > 0 && in[0] == 0xff {
			base = 1<<keyEraseBits - 1 - 315 - len(in) // every erase count below stays inside the field
			in = in[1:]
		}
		var q, other wearQueue
		blocks := sizes[0]
		q.reset(blocks)
		other.reset(sizes[2])
		for b := 0; b < 300; b++ { // other holds keys and buffers of its own
			other.push(packKey(b%11*40, b*16))
		}
		var model []uint64 // the queued keys, ascending
		queued := map[int]bool{}
		for step := 0; len(in) > 0; step++ {
			c := in[0]
			in = in[1:]
			switch c >> 6 {
			case 0: // push
				if len(in) < 2 {
					return
				}
				b := (int(in[0])<<8 | int(in[1])) % blocks
				in = in[2:]
				if queued[b] {
					continue
				}
				k := packKey(base+int(c&63)*5, b)
				q.push(k)
				i, _ := slices.BinarySearch(model, k)
				model = slices.Insert(model, i, k)
				queued[b] = true
			case 1: // pop, and maybe push back one erase count higher
				if len(model) == 0 {
					continue
				}
				got := q.pop()
				if got != model[0] {
					t.Fatalf("step %d: popped %#x, want %#x", step, got, model[0])
				}
				model = model[1:]
				if c&63 == 0 {
					delete(queued, int(got&keyBlockMask))
					break
				}
				k := got + 1<<keyBlockBits
				q.push(k)
				i, _ := slices.BinarySearch(model, k)
				model = slices.Insert(model, i, k)
			case 2: // copy into the used queue and go on with the copy
				other.copyFrom(&q)
				q, other = other, q
			case 3: // reset to another block count
				next := sizes[int(c&63)%3]
				if next == blocks {
					next = sizes[(int(c&63)+1)%3]
				}
				blocks = next
				q.reset(blocks)
				model, queued = model[:0], map[int]bool{}
			}
			keys, err := q.appendKeys(nil)
			if err != nil {
				t.Fatalf("step %d: %v", step, err)
			}
			if q.Len() != len(model) || !slices.Equal(keys, model) {
				t.Fatalf("step %d: queue holds %d keys %#x; model %d, %#x", step, q.Len(), keys, len(model), model)
			}
		}
	})
}

// TestBlockQueueKeyWidthGuard pins the key packing the wear queues run on.
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

// TestWearQueueZeroAlloc pins that steady-state push/pop inside the window
// allocates nothing: every pop's block comes back one erase later, so the
// window slides up, reusing the ring's entries and the recycled slots.
func TestWearQueueZeroAlloc(t *testing.T) {
	var q wearQueue
	q.reset(8192)
	for i := 0; i < 560; i++ {
		q.push(packKey(i%7, i*13))
	}
	allocs := testing.AllocsPerRun(1000, func() {
		k := q.pop()
		q.push(k + 1<<keyBlockBits)
	})
	if allocs != 0 {
		t.Fatalf("wear queue push/pop allocates %.1f times per op, want 0", allocs)
	}
	if q.Len() != 560 || q.span > 8 {
		t.Fatalf("%d blocks queued over %d erase counts, want 560 over at most 8", q.Len(), q.span)
	}
}

// TestWearQueueMemoryFollowsDistinctWear pins the slab to the erase counts
// present: counts 0 and 100,000 at once take two bitsets, not 100,001.
// TestPoolMemoryFollowsDistinctWear holds an enforced device's free pool to
// the same.
func TestWearQueueMemoryFollowsDistinctWear(t *testing.T) {
	var q wearQueue
	q.reset(1024)
	q.push(packKey(100_000, 7))
	q.push(packKey(0, 900))
	q.push(packKey(100_000, 3))
	if slots := len(q.slab) / q.stride; slots != 2 {
		t.Fatalf("the slab holds %d bitsets for 2 erase counts", slots)
	}
	for _, want := range []uint64{packKey(0, 900), packKey(100_000, 3), packKey(100_000, 7)} {
		if got := q.pop(); got != want {
			t.Fatalf("popped %#x, want %#x", got, want)
		}
	}
	if q.Len() != 0 || q.span != 0 {
		t.Fatalf("drained queue: %d keys over %d erase counts", q.Len(), q.span)
	}
}

// victimStream returns a push/pop stream shaped like the reclamation
// candidates of a 1 GiB page-mapped SSD under random writes: about 560
// candidates over 8,300 blocks. Each step reclaims the least-worn candidate
// into a free pool, allocates that pool's least-worn block and obsoletes a
// random mapped block, as the PageFTL does; the stream starts and ends empty,
// so it replays in a loop. A pop is ^0.
func victimStream(tb testing.TB) []uint64 {
	const blocks, candidates, spare, steps = 8300, 560, 16, 1 << 14
	const pop = ^uint64(0)
	var ref, free wearQueue
	ref.reset(blocks)
	free.reset(blocks)
	wear := make([]int, blocks)
	var stream []uint64
	push := func(b int) {
		k := packKey(wear[b], b)
		ref.push(k)
		stream = append(stream, k)
	}
	mapped := make([]int, 0, blocks)
	for b := range blocks {
		switch {
		case b < candidates:
			push(b)
		case b < candidates+spare:
			free.push(packKey(0, b))
		default:
			mapped = append(mapped, b)
		}
	}
	z := uint64(88172645463325252)
	for range steps {
		v := int(ref.pop() & keyBlockMask)
		stream = append(stream, pop)
		wear[v]++
		free.push(packKey(wear[v], v))
		z ^= z << 13
		z ^= z >> 7
		z ^= z << 17
		i := int(z % uint64(len(mapped)))
		old := mapped[i]
		mapped[i] = int(free.pop() & keyBlockMask)
		push(old)
		if ref.span > 7 {
			tb.Fatalf("queued erase counts span %d values, more than 7", ref.span)
		}
	}
	for ref.Len() > 0 {
		ref.pop()
		stream = append(stream, pop)
	}
	return stream
}

// poolStream returns a pop/push stream shaped like the free pool of a 1 GiB
// block-mapped drive after state enforcement: 400 keys over 8,200 blocks at
// three erase counts. Each pop is followed by a push of the popped block one
// erase count higher, so the queued counts span at most three values; the
// stream starts and ends empty, so it replays in a loop. A pop is ^0.
func poolStream(tb testing.TB) []uint64 {
	const blocks, pooled, steps = 8200, 400, 1 << 14
	const pop = ^uint64(0)
	var ref wearQueue
	ref.reset(blocks)
	var stream []uint64
	push := func(k uint64) {
		ref.push(k)
		stream = append(stream, k)
	}
	for i := range pooled {
		push(packKey(i%3, i*blocks/pooled))
	}
	for range steps {
		k := ref.pop()
		stream = append(stream, pop)
		push(k + 1<<keyBlockBits)
		if ref.span > 3 {
			tb.Fatalf("queued erase counts span %d values, more than 3", ref.span)
		}
	}
	for ref.Len() > 0 {
		ref.pop()
		stream = append(stream, pop)
	}
	return stream
}

// BenchmarkVictimQueue replays victimStream and poolStream on the wear queue
// both FTLs run on; ns/op is per push or pop.
func BenchmarkVictimQueue(b *testing.B) {
	for _, bench := range []struct {
		name   string
		stream []uint64
	}{{"victims", victimStream(b)}, {"pool", poolStream(b)}} {
		b.Run(bench.name, func(b *testing.B) {
			var q wearQueue
			q.reset(8300)
			for i, j := 0, 0; i < b.N; i, j = i+1, j+1 {
				if j == len(bench.stream) {
					j = 0
				}
				if k := bench.stream[j]; k == ^uint64(0) {
					q.pop()
				} else {
					q.push(k)
				}
			}
		})
	}
}
