package flash

import (
	"bytes"
	"math/rand"
	"testing"
	"time"
)

// refChip is the chip as it was before the block cursor became the page
// state: one PageState per page next to the cursor, one page per call, every
// check made per page. It is the oracle the run operations are compared
// against; a run is defined as n of its single-page calls, undone as a whole
// when one of them fails.
type refChip struct {
	geo      Geometry
	timing   Timing
	cell     CellType
	transfer time.Duration

	blocks      []refBlock
	pages       []PageState
	stats       Stats
	cachedBlock []int
	cachedPage  []int
	data        map[int64][]byte
}

type refBlock struct {
	eraseCount int
	nextPage   int
	bad        bool
}

func newRefChip(geo Geometry, cell CellType) *refChip {
	r := &refChip{
		geo:         geo,
		timing:      TypicalTiming(cell),
		cell:        cell,
		blocks:      make([]refBlock, geo.Blocks),
		pages:       make([]PageState, geo.Blocks*geo.PagesPerBlock),
		cachedBlock: make([]int, geo.Planes),
		cachedPage:  make([]int, geo.Planes),
		data:        make(map[int64][]byte),
	}
	for p := range r.cachedBlock {
		r.cachedBlock[p], r.cachedPage[p] = -1, -1
	}
	r.transfer = time.Duration(geo.PageSize+geo.OOBSize) * r.timing.PerByte
	return r
}

func (r *refChip) clone() *refChip {
	g := *r
	g.blocks = append([]refBlock(nil), r.blocks...)
	g.pages = append([]PageState(nil), r.pages...)
	g.cachedBlock = append([]int(nil), r.cachedBlock...)
	g.cachedPage = append([]int(nil), r.cachedPage...)
	g.data = make(map[int64][]byte, len(r.data))
	for k, v := range r.data {
		g.data[k] = append([]byte(nil), v...)
	}
	return &g
}

func (r *refChip) checkAddr(block, page int) error {
	if block < 0 || block >= r.geo.Blocks || page < 0 || page >= r.geo.PagesPerBlock {
		return ErrOutOfRange
	}
	return nil
}

func (r *refChip) pageIndex(block, page int) int { return block*r.geo.PagesPerBlock + page }

func (r *refChip) readPage(block, page int) (time.Duration, error) {
	if err := r.checkAddr(block, page); err != nil {
		return 0, err
	}
	if r.blocks[block].bad {
		return 0, ErrBadBlock
	}
	if r.pages[r.pageIndex(block, page)] != PageProgrammed {
		return 0, ErrReadErased
	}
	r.stats.Reads++
	plane := r.geo.Plane(block)
	var d time.Duration
	if r.cachedBlock[plane] != block || r.cachedPage[plane] != page {
		d += r.timing.ReadPage
		r.cachedBlock[plane], r.cachedPage[plane] = block, page
	}
	return d + r.transfer, nil
}

func (r *refChip) readData(block, page int) ([]byte, error) {
	if err := r.checkAddr(block, page); err != nil {
		return nil, err
	}
	if r.pages[r.pageIndex(block, page)] != PageProgrammed {
		return nil, ErrReadErased
	}
	return r.data[int64(r.pageIndex(block, page))], nil
}

func (r *refChip) programPage(block, page int, payload []byte) (time.Duration, error) {
	if err := r.checkAddr(block, page); err != nil {
		return 0, err
	}
	b := &r.blocks[block]
	if b.bad {
		return 0, ErrBadBlock
	}
	if r.pages[r.pageIndex(block, page)] != PageErased {
		return 0, ErrNotErased
	}
	if page != b.nextPage {
		return 0, ErrOutOfOrder
	}
	if len(payload) > r.geo.PageSize {
		return 0, ErrPayloadTooLong
	}
	r.pages[r.pageIndex(block, page)] = PageProgrammed
	b.nextPage++
	r.stats.Programs++
	r.data[int64(r.pageIndex(block, page))] = append([]byte(nil), payload...)
	plane := r.geo.Plane(block)
	r.cachedBlock[plane], r.cachedPage[plane] = -1, -1
	return r.transfer + r.timing.ProgramPage, nil
}

func (r *refChip) eraseBlock(block int) (time.Duration, error) {
	if block < 0 || block >= r.geo.Blocks {
		return 0, ErrOutOfRange
	}
	b := &r.blocks[block]
	if b.bad {
		return 0, ErrBadBlock
	}
	b.eraseCount++
	r.stats.Erases++
	if b.eraseCount > r.cell.EraseLimit() {
		b.bad = true
		return r.timing.EraseBlock, ErrWornOut
	}
	base := r.pageIndex(block, 0)
	clear(r.pages[base : base+r.geo.PagesPerBlock])
	b.nextPage = 0
	plane := r.geo.Plane(block)
	if r.cachedBlock[plane] == block {
		r.cachedBlock[plane], r.cachedPage[plane] = -1, -1
	}
	return r.timing.EraseBlock, nil
}

func (r *refChip) markBad(block int) error {
	if block < 0 || block >= r.geo.Blocks {
		return ErrOutOfRange
	}
	r.blocks[block].bad = true
	return nil
}

// run applies op to n consecutive pages one call at a time. On the first
// failure it puts the chip back as it was before the run and reports that
// page's error: the all-or-nothing contract of the run operations. A run has
// at least one page; fewer is out of range.
func (r *refChip) run(first, n int, op func(i, page int) (time.Duration, error)) (time.Duration, error) {
	if n < 1 {
		return 0, ErrOutOfRange
	}
	before := r.clone()
	var total time.Duration
	for i := 0; i < n; i++ {
		d, err := op(i, first+i)
		if err != nil {
			*r = *before
			return 0, err
		}
		total += d
	}
	return total, nil
}

func (r *refChip) readRun(block, first, n int) (time.Duration, error) {
	return r.run(first, n, func(_, page int) (time.Duration, error) { return r.readPage(block, page) })
}

// programRun splits payload into PageSize pieces; whatever is left past the
// run's last page stays with that page, which is then the one to refuse it.
func (r *refChip) programRun(block, first, n int, payload []byte) (time.Duration, error) {
	ps := r.geo.PageSize
	return r.run(first, n, func(i, page int) (time.Duration, error) {
		piece := payload[min(i*ps, len(payload)):]
		if i < n-1 {
			piece = piece[:min(ps, len(piece))]
		}
		return r.programPage(block, page, piece)
	})
}

var runFuzzGeo = Geometry{PageSize: 4, OOBSize: 1, PagesPerBlock: 4, Blocks: 6, Planes: 2}

// newRunFuzzPair builds a chip and its reference in the same starting state:
// all erased, with the last two blocks one erase short of their budget so a
// short sequence can wear them out.
func newRunFuzzPair(t *testing.T) (*Chip, *refChip) {
	t.Helper()
	c, err := NewChip(runFuzzGeo, SLC, WithDataStorage())
	if err != nil {
		t.Fatal(err)
	}
	ref := newRefChip(runFuzzGeo, SLC)
	s := snapshot(c)
	for _, b := range []int{runFuzzGeo.Blocks - 2, runFuzzGeo.Blocks - 1} {
		s.Blocks[b].EraseCount = int32(SLC.EraseLimit() - 1)
		ref.blocks[b].eraseCount = SLC.EraseLimit() - 1
	}
	if err := restore(c, s); err != nil {
		t.Fatal(err)
	}
	return c, ref
}

// requireSameChip compares everything observable about the two chips,
// addresses one past either end included. The register state is observed the
// only way a caller can: as the duration of the next ReadPage, taken on
// throwaway clones for every page.
func requireSameChip(t *testing.T, step int, c *Chip, ref *refChip) {
	t.Helper()
	g := runFuzzGeo
	if err := c.Audit(); err != nil {
		t.Fatalf("step %d: %v", step, err)
	}
	if c.Stats() != ref.stats {
		t.Fatalf("step %d: stats %+v, reference %+v", step, c.Stats(), ref.stats)
	}
	for b := -1; b <= g.Blocks; b++ {
		inRange := b >= 0 && b < g.Blocks
		next, err := c.NextProgramPage(b)
		ec, _ := c.EraseCount(b)
		if inRange != (err == nil) || c.IsBad(b) != (!inRange || ref.blocks[b].bad) {
			t.Fatalf("step %d: block %d: cursor err %v, bad %v", step, b, err, c.IsBad(b))
		}
		if inRange && (next != ref.blocks[b].nextPage || ec != ref.blocks[b].eraseCount) {
			t.Fatalf("step %d: block %d: cursor %d erases %d, reference %d and %d",
				step, b, next, ec, ref.blocks[b].nextPage, ref.blocks[b].eraseCount)
		}
		for p := -1; p <= g.PagesPerBlock; p++ {
			st, err := c.PageStateAt(b, p)
			if refErr := ref.checkAddr(b, p); err != refErr || (err == nil && st != ref.pages[ref.pageIndex(b, p)]) {
				t.Fatalf("step %d: PageStateAt(%d,%d) = %v, %v; reference err %v", step, b, p, st, err, refErr)
			}
			data, err := c.ReadData(b, p)
			refData, refErr := ref.readData(b, p)
			if err != refErr || !bytes.Equal(data, refData) {
				t.Fatalf("step %d: ReadData(%d,%d) = %q, %v; reference %q, %v", step, b, p, data, err, refData, refErr)
			}
			d, err := c.Clone().ReadPage(b, p)
			refD, refErr := ref.clone().readPage(b, p)
			if d != refD || err != refErr {
				t.Fatalf("step %d: next ReadPage(%d,%d) = %v, %v; reference %v, %v", step, b, p, d, err, refD, refErr)
			}
		}
	}
}

// runOps decodes ops five bytes at a time — kind, block, first page, page
// count, payload length — into program-run / read-run / erase / mark-bad /
// single-page calls whose arguments reach one past every bound, applies each
// to both chips and compares them after every step.
func runOps(t *testing.T, ops []byte) {
	c, ref := newRunFuzzPair(t)
	g := runFuzzGeo
	requireSameChip(t, -1, c, ref)
	for step := 0; len(ops) >= 5; step, ops = step+1, ops[5:] {
		block := int(ops[1]%uint8(g.Blocks+2)) - 1
		first := int(ops[2]%uint8(g.PagesPerBlock+3)) - 1
		n := int(ops[3]%uint8(g.PagesPerBlock+4)) - 1
		var payload []byte
		if l := int(ops[4] % 32); l > 0 {
			payload = make([]byte, l-1) // up to 30 bytes: longer than any run that fits
			for i := range payload {
				payload[i] = ops[4] ^ byte(i) ^ byte(step)
			}
		}
		var d, refD time.Duration
		var err, refErr error
		switch kind := ops[0] % 8; {
		case kind <= 2:
			d, err = c.ProgramRun(block, first, n, payload)
			refD, refErr = ref.programRun(block, first, n, payload)
		case kind <= 4:
			d, err = c.ReadRun(block, first, n)
			refD, refErr = ref.readRun(block, first, n)
		case kind == 5:
			d, err = c.EraseBlock(block)
			refD, refErr = ref.eraseBlock(block)
		case kind == 6 && n == 0:
			err, refErr = c.MarkBad(block), ref.markBad(block)
		case kind == 6:
			d, err = c.ReadPage(block, first)
			refD, refErr = ref.readPage(block, first)
		default:
			d, err = c.ProgramPage(block, first, payload)
			refD, refErr = ref.programPage(block, first, payload)
		}
		if d != refD || err != refErr {
			t.Fatalf("step %d: op % x: got %v, %v; reference %v, %v", step, ops[:5], d, err, refD, refErr)
		}
		requireSameChip(t, step, c, ref)
	}
}

// FuzzChipRunEquivalence is the differential test of the cursor-as-state
// chip and its run operations against the page-at-a-time reference: random
// sequences, invalid ones included, must produce the same errors, durations,
// page states, cursors, wear, stats, payloads and register contents.
func FuzzChipRunEquivalence(f *testing.F) {
	// The hand-written sequences (fill and read back across the register,
	// wear-out, every invalid run, bad blocks) are the committed corpus in
	// testdata/fuzz; these add breadth.
	rng := rand.New(rand.NewSource(12))
	for i := 0; i < 4; i++ {
		ops := make([]byte, 5*200)
		rng.Read(ops)
		f.Add(ops)
	}
	f.Fuzz(func(t *testing.T, ops []byte) { runOps(t, ops) })
}
