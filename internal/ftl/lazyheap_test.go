package ftl

import "testing"

// This file keeps the victim selection the blockQueue replaced — a generic
// lazy min-heap holding one entry per overwrite, validated on pop through a
// per-block generation — as the oracle FuzzVictimQueueMatchesLazyHeap
// compares the queue against.

type ordered[T any] interface{ before(T) bool }

type minHeap[T ordered[T]] struct {
	items []T
}

func (h *minHeap[T]) Len() int { return len(h.items) }

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

func (h *minHeap[T]) Peek() T { return h.items[0] }

func (h *minHeap[T]) Pop() T {
	top := h.items[0]
	n := len(h.items) - 1
	x := h.items[n]
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

// victimModel is the block state both selections read — live counts, open
// flags, wear — plus the two structures under comparison.
type victimModel struct {
	units  int // units per block
	live   []int32
	isOpen []bool
	isFree []bool
	erases []int

	lazy minHeap[victimBlock]
	vgen []int32
	q    blockQueue
}

func newVictimModel(blocks, units, baseErases int) *victimModel {
	m := &victimModel{
		units:  units,
		live:   make([]int32, blocks),
		isOpen: make([]bool, blocks),
		isFree: make([]bool, blocks),
		erases: make([]int, blocks),
		vgen:   make([]int32, blocks),
		q:      newBlockQueue(blocks),
	}
	for b := range m.isFree {
		m.isFree[b] = true
		m.erases[b] = baseErases
	}
	return m
}

// pushVictim is PageFTL.pushVictim on both structures.
func (m *victimModel) pushVictim(b int) {
	if m.isOpen[b] || int(m.live[b]) >= m.units {
		return
	}
	m.lazy.Push(victimBlock{block: b, live: int(m.live[b]), eraseCount: m.erases[b], gen: m.vgen[b]})
	m.q.push(packKey(int(m.live[b]), m.erases[b], b))
}

// peekLazy is the retired PageFTL.peekVictim, verbatim.
func (m *victimModel) peekLazy() (int, bool) {
	for m.lazy.Len() > 0 {
		v := m.lazy.Peek()
		cur := m.live[v.block]
		switch {
		case v.gen != m.vgen[v.block] || m.isOpen[v.block]:
			m.lazy.Pop()
		case int32(v.live) != cur:
			m.lazy.Pop()
			m.lazy.Push(victimBlock{block: v.block, live: int(cur), eraseCount: v.eraseCount, gen: v.gen})
		case int(cur) >= m.units:
			m.lazy.Pop()
		default:
			return v.block, true
		}
	}
	return 0, false
}

// check compares the two selections and pins the queue to the derivable
// candidate set: closed, not free, at least one obsolete slot.
func (m *victimModel) check(t *testing.T, step int) {
	t.Helper()
	want, ok := m.peekLazy()
	if ok != (m.q.Len() > 0) {
		t.Fatalf("step %d: lazy heap has a victim: %v, queue holds %d", step, ok, m.q.Len())
	}
	if ok {
		if got := int(m.q.min() & keyBlockMask); got != want {
			t.Fatalf("step %d: queue picks block %d, lazy heap %d", step, got, want)
		}
	}
	n := 0
	for b := range m.live {
		cand := !m.isOpen[b] && !m.isFree[b] && int(m.live[b]) < m.units
		if cand != m.q.contains(b) {
			t.Fatalf("step %d: block %d candidate=%v queued=%v", step, b, cand, m.q.contains(b))
		}
		if cand {
			n++
		}
	}
	if n != m.q.Len() {
		t.Fatalf("step %d: %d candidates, queue Len %d", step, n, m.q.Len())
	}
}

// collect is PageFTL.collectOne's queue traffic: pop the victim, relocate its
// live units (each relocation obsoletes one of the victim's own slots and so
// queues it again), erase, free.
func (m *victimModel) collect(t *testing.T, step int) {
	want, ok := m.peekLazy()
	if !ok {
		return
	}
	m.lazy.Pop()
	if got := int(m.q.pop() & keyBlockMask); got != want {
		t.Fatalf("step %d: queue collects block %d, lazy heap %d", step, got, want)
	}
	for m.live[want] > 0 {
		m.live[want]--
		m.pushVictim(want)
	}
	m.vgen[want]++
	m.q.remove(want)
	m.erases[want]++
	m.isFree[want] = true
}

func FuzzVictimQueueMatchesLazyHeap(f *testing.F) {
	f.Add([]byte{0x00, 0x10, 0x20, 0x01, 0x11, 0x21, 0x02, 0x12, 0x03, 0x03, 0x03})
	// A victim with live units left is re-queued by its own relocations and
	// must be gone after its erase: open, close, overwrite once, collect.
	f.Add([]byte{0x00, 0x01, 0x02, 0x03, 0x00, 0x01, 0x03})
	// Erase counts at the top of the key's erase field.
	f.Add([]byte{0xff, 0x00, 0x10, 0x01, 0x11, 0x02, 0x12, 0x03, 0x00, 0x01, 0x02, 0x03})
	f.Fuzz(func(t *testing.T, in []byte) {
		const blocks, units = 16, 4
		base := 0
		if len(in) > 0 && in[0] == 0xff {
			base = 1<<keyEraseBits - 2 - len(in) // every erase below stays inside the field
			in = in[1:]
		}
		m := newVictimModel(blocks, units, base)
		for step, c := range in {
			b := int(c >> 4)
			switch c & 3 {
			case 0: // reopen: a free block is attached to a write point and filled
				if m.isFree[b] {
					m.isFree[b], m.isOpen[b], m.live[b] = false, true, units
				}
			case 1: // close
				if m.isOpen[b] {
					m.isOpen[b] = false
					m.pushVictim(b)
				}
			case 2: // overwrite one unit living in b
				if !m.isFree[b] && m.live[b] > 0 {
					m.live[b]--
					m.pushVictim(b)
				}
			case 3:
				m.collect(t, step)
			}
			m.check(t, step)
		}
	})
}

func TestBlockQueueKeyWidthGuard(t *testing.T) {
	if err := checkKeyWidths(1<<keyBlockBits, 1_000_000, 64); err != nil {
		t.Fatalf("widest supported array rejected: %v", err)
	}
	for _, c := range []struct{ blocks, eraseLimit, live int }{
		{1<<keyBlockBits + 1, 100_000, 64},
		{1024, 1<<keyEraseBits - 1, 64},
		{1024, 100_000, 1 << keyLiveBits},
	} {
		if checkKeyWidths(c.blocks, c.eraseLimit, c.live) == nil {
			t.Errorf("checkKeyWidths(%d, %d, %d) accepted fields wider than the key", c.blocks, c.eraseLimit, c.live)
		}
	}
	// The extremes of every field survive the packing and order by field.
	hi := packKey(1<<keyLiveBits-1, 1<<keyEraseBits-1, keyBlockMask)
	if hi != ^uint64(0) {
		t.Fatalf("packed maxima = %#x", hi)
	}
	if !(packKey(0, 1<<keyEraseBits-1, keyBlockMask) < packKey(1, 0, 0) && packKey(3, 7, keyBlockMask) < packKey(3, 8, 0)) {
		t.Fatal("key order is not (live, eraseCount, block)")
	}
}
