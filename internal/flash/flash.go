// Package flash models NAND flash chips at the level of detail Section 2.1 of
// the uFLIP paper describes: independent arrays of cells (flash blocks) made
// of rows (flash pages), read/program/erase as the basic operations, pages
// programmed sequentially within a block to limit write errors, erase only at
// block granularity, a bounded erase budget per block (smaller for MLC than
// SLC), wear tracking and bad-block marking, two planes (even/odd blocks)
// that can operate concurrently, and an optional page register cache.
//
// Sequential programming plus block-granular erase mean a page is programmed
// exactly when it lies below its block's program cursor, so the cursor is the
// only page state the chip keeps, and programming or reading a run of
// consecutive pages is one validation plus cursor arithmetic (ProgramRun,
// ReadRun). The single-page operations are the one-page case of the run
// operations.
//
// The chip does not store payload data by default — the simulator is about
// timing, and a 32 GB device would need 32 GB of RAM — but payload storage
// can be enabled for integrity testing on small chips.
package flash

import (
	"errors"
	"fmt"
	"math"
	"time"
)

// CellType distinguishes single- and multi-level cell chips (Section 2.1).
type CellType int

const (
	// SLC stores one bit per cell: faster, ~10^6 erases per block.
	SLC CellType = iota
	// MLC stores two or more bits per cell: denser, slower, ~10^5 erases.
	MLC
)

// String returns "SLC" or "MLC".
func (c CellType) String() string {
	if c == SLC {
		return "SLC"
	}
	return "MLC"
}

// EraseLimit returns the nominal erase budget per block for the cell type.
func (c CellType) EraseLimit() int {
	if c == SLC {
		return 1_000_000
	}
	return 100_000
}

// Geometry describes the physical layout of one chip.
type Geometry struct {
	PageSize      int // data bytes per flash page (typically 2048)
	OOBSize       int // out-of-band bytes per page for ECC/bookkeeping (typically 64)
	PagesPerBlock int // typically 64
	Blocks        int // total flash blocks on the chip (across planes)
	Planes        int // 1 or 2; with 2, even blocks are plane 0, odd plane 1
}

// Validate reports whether the geometry is internally consistent.
func (g Geometry) Validate() error {
	switch {
	case g.PageSize <= 0:
		return fmt.Errorf("flash: PageSize %d must be positive", g.PageSize)
	case g.PagesPerBlock <= 0:
		return fmt.Errorf("flash: PagesPerBlock %d must be positive", g.PagesPerBlock)
	case g.PagesPerBlock > math.MaxInt16:
		return fmt.Errorf("flash: PagesPerBlock %d exceeds the %d the block cursor can hold", g.PagesPerBlock, math.MaxInt16)
	case g.Blocks <= 0:
		return fmt.Errorf("flash: Blocks %d must be positive", g.Blocks)
	case g.Planes != 1 && g.Planes != 2:
		return fmt.Errorf("flash: Planes %d must be 1 or 2", g.Planes)
	case g.OOBSize < 0:
		return fmt.Errorf("flash: OOBSize %d must be non-negative", g.OOBSize)
	}
	return nil
}

// BlockSize returns the data capacity of one flash block in bytes.
func (g Geometry) BlockSize() int { return g.PageSize * g.PagesPerBlock }

// Capacity returns the data capacity of the chip in bytes.
func (g Geometry) Capacity() int64 { return int64(g.BlockSize()) * int64(g.Blocks) }

// Plane returns the plane a block belongs to (even blocks plane 0, odd 1).
func (g Geometry) Plane(block int) int {
	if g.Planes == 1 {
		return 0
	}
	return block % 2
}

// Timing holds the latencies of the three basic chip operations plus the
// per-byte transfer cost between the page register and the controller.
type Timing struct {
	ReadPage    time.Duration // cell array -> page register
	ProgramPage time.Duration // page register -> cell array
	EraseBlock  time.Duration
	PerByte     time.Duration // register <-> controller transfer, per byte
}

// TypicalTiming returns datasheet-representative timings for the cell type
// (2008-era chips: SLC ~25us read, ~200us program, ~1.5ms erase; MLC ~50us
// read, ~800us program, ~3ms erase; ~25ns/byte transfer).
func TypicalTiming(c CellType) Timing {
	if c == SLC {
		return Timing{
			ReadPage:    25 * time.Microsecond,
			ProgramPage: 200 * time.Microsecond,
			EraseBlock:  1500 * time.Microsecond,
			PerByte:     25 * time.Nanosecond,
		}
	}
	return Timing{
		ReadPage:    50 * time.Microsecond,
		ProgramPage: 800 * time.Microsecond,
		EraseBlock:  3 * time.Millisecond,
		PerByte:     25 * time.Nanosecond,
	}
}

// Errors returned by chip operations.
var (
	ErrBadBlock       = errors.New("flash: block is marked bad")
	ErrWornOut        = errors.New("flash: block exceeded its erase budget")
	ErrNotErased      = errors.New("flash: programming a page that is not erased")
	ErrOutOfOrder     = errors.New("flash: pages must be programmed sequentially within a block")
	ErrOutOfRange     = errors.New("flash: address out of range")
	ErrReadErased     = errors.New("flash: reading an erased page")
	ErrDataDisabled   = errors.New("flash: payload storage is disabled on this chip")
	ErrBadGeometry    = errors.New("flash: invalid geometry")
	ErrPayloadTooLong = errors.New("flash: payload longer than page size")
)

// PageState is what the chip knows about a page, derived from the block's
// program cursor. (Validity of the data — live vs obsolete — is the FTL's
// concern, not the chip's.)
type PageState uint8

const (
	// PageErased means the page holds all-ones and may be programmed.
	PageErased PageState = iota
	// PageProgrammed means the page holds data.
	PageProgrammed
)

// BlockState is everything the chip tracks per block, packed into 8 bytes so
// a chip copy is one small bulk copy. Pages [0,NextPage) are programmed and
// the rest erased; the erase budget (at most 10^6) fits an int32 and
// Geometry.Validate bounds PagesPerBlock to an int16.
type BlockState struct {
	EraseCount int32
	NextPage   int16 // program cursor: the only page that may be programmed next
	Bad        bool
}

// Stats aggregates chip-level counters, useful for wear-leveling tests and
// for verifying that the FTL issues the operations the cost model charges.
type Stats struct {
	Reads    int64
	Programs int64
	Erases   int64
}

// ChipState is everything about a chip that changes as it runs, and the struct
// the chip runs on: a clone, a reset, a snapshot and a restore are all CopyFrom
// on it, and the state store serializes it as it stands.
type ChipState struct {
	Blocks []BlockState
	Stats  Stats
	// CachedBlock/CachedPage track the page currently held in the page
	// register of each plane (-1/-1 when empty); re-reading it skips the
	// cell-array read.
	CachedBlock []int
	CachedPage  []int
	// Data holds page payloads by global page index; nil unless the chip
	// stores data. Buffers of erased pages stay behind for reuse.
	Data map[int64][]byte
}

// CopyFrom makes s a deep copy of src, reusing s's buffers; s may be a zero
// value. It is the one traversal of the chip's state. A nil src.Data means no
// payloads (gob decodes an empty map as nil) and leaves s a usable empty map
// if it had one.
func (s *ChipState) CopyFrom(src *ChipState) {
	s.Blocks = append(s.Blocks[:0], src.Blocks...)
	s.Stats = src.Stats
	s.CachedBlock = append(s.CachedBlock[:0], src.CachedBlock...)
	s.CachedPage = append(s.CachedPage[:0], src.CachedPage...)
	if s.Data == nil && src.Data != nil {
		s.Data = make(map[int64][]byte, len(src.Data))
	}
	clear(s.Data)
	for k, v := range src.Data {
		s.Data[k] = append([]byte(nil), v...)
	}
}

// audit states the chip's invariant: whether a chip built as cfg could be
// in state s.
func (s *ChipState) audit(cfg *chipConfig) error {
	geo := cfg.geo
	switch {
	case len(s.Blocks) != geo.Blocks:
		return fmt.Errorf("flash: state has %d blocks, chip %d", len(s.Blocks), geo.Blocks)
	case len(s.CachedBlock) != geo.Planes || len(s.CachedPage) != geo.Planes:
		return fmt.Errorf("flash: state register contents do not match %d planes", geo.Planes)
	case len(s.Data) > 0 && !cfg.storeData:
		return fmt.Errorf("flash: state carries %d payloads but the chip does not store data", len(s.Data))
	case s.Stats.Reads < 0 || s.Stats.Programs < 0 || s.Stats.Erases < 0:
		return fmt.Errorf("flash: state has negative operation counters %+v", s.Stats)
	}
	for i, b := range s.Blocks {
		if b.NextPage < 0 || int(b.NextPage) > geo.PagesPerBlock {
			return fmt.Errorf("flash: block %d has program cursor %d outside [0,%d]", i, b.NextPage, geo.PagesPerBlock)
		}
		// A block is marked bad by the erase that exceeds its budget.
		if limit := cfg.cell.EraseLimit(); b.EraseCount < 0 || int(b.EraseCount) > limit+1 || (int(b.EraseCount) > limit && !b.Bad) {
			return fmt.Errorf("flash: block %d has erase count %d outside its budget of %d", i, b.EraseCount, limit)
		}
	}
	return nil
}

// chipConfig is what a chip is built as: fixed at construction, copied whole
// by ResetFrom and only read afterwards.
type chipConfig struct {
	geo    Geometry
	timing Timing
	cell   CellType
	// transfer is the register <-> controller time for one page plus OOB,
	// precomputed from the timing so the per-IO paths do not multiply.
	transfer  time.Duration
	storeData bool
}

// Chip is one simulated NAND flash chip. It is not safe for concurrent use;
// the device serializes access, which also reflects how a single chip behaves
// behind its controller.
type Chip struct {
	cfg chipConfig
	st  ChipState
}

// Option configures a Chip at construction time.
type Option func(*Chip)

// WithDataStorage enables payload storage so tests can verify read-after-
// write integrity. Only sensible for small chips.
func WithDataStorage() Option {
	return func(c *Chip) {
		c.cfg.storeData = true
		c.st.Data = make(map[int64][]byte)
	}
}

// NewChip builds a chip with the given geometry and cell type, fully erased.
func NewChip(geo Geometry, cell CellType, opts ...Option) (*Chip, error) {
	if err := geo.Validate(); err != nil {
		return nil, err
	}
	c := &Chip{
		cfg: chipConfig{geo: geo, timing: TypicalTiming(cell), cell: cell},
		st: ChipState{
			Blocks:      make([]BlockState, geo.Blocks),
			CachedBlock: make([]int, geo.Planes),
			CachedPage:  make([]int, geo.Planes),
		},
	}
	for p := 0; p < geo.Planes; p++ {
		c.st.CachedBlock[p] = -1
		c.st.CachedPage[p] = -1
	}
	for _, opt := range opts {
		opt(c)
	}
	c.cfg.transfer = time.Duration(geo.PageSize+geo.OOBSize) * c.cfg.timing.PerByte
	return c, nil
}

// Clone returns a deep copy of the chip: block cursors, wear
// counters, operation stats, page-register contents and (when payload
// storage is enabled) the stored data. The clone and the original evolve
// independently; driving both with the same operation sequence yields
// identical durations, errors and stats.
func (c *Chip) Clone() *Chip {
	g := &Chip{}
	g.ResetFrom(c)
	return g
}

// ResetFrom makes c a deep copy of src, reusing c's buffers; c may be a zero
// value. A shard device recycled by the engine is reset from the enforced
// master this way instead of being cloned again.
func (c *Chip) ResetFrom(src *Chip) {
	c.cfg = src.cfg
	c.st.CopyFrom(&src.st)
}

// State returns the struct the chip runs on — not a copy. It is how the layers
// above audit themselves against the flash, capture it and, by CopyFrom of a
// state that passed Check, restore it; otherwise callers only read it.
func (c *Chip) State() *ChipState { return &c.st }

// Check reports why s is not a state a chip of this build could be in, nil
// when it is one.
func (c *Chip) Check(s *ChipState) error {
	if s == nil {
		return fmt.Errorf("flash: nil chip state")
	}
	return s.audit(&c.cfg)
}

// Audit checks the chip's invariant on its live state.
func (c *Chip) Audit() error { return c.Check(&c.st) }

// Geometry returns the chip geometry.
func (c *Chip) Geometry() Geometry { return c.cfg.geo }

// StoresData reports whether the chip retains page payloads
// (WithDataStorage).
func (c *Chip) StoresData() bool { return c.cfg.storeData }

// Cell returns the chip's cell type.
func (c *Chip) Cell() CellType { return c.cfg.cell }

// Timing returns the chip's operation timings.
func (c *Chip) Timing() Timing { return c.cfg.timing }

// Stats returns a snapshot of the operation counters.
func (c *Chip) Stats() Stats { return c.st.Stats }

// EraseCount returns the number of erase cycles block has endured.
func (c *Chip) EraseCount(block int) (int, error) {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return 0, ErrOutOfRange
	}
	return int(c.st.Blocks[block].EraseCount), nil
}

// IsBad reports whether a block has been marked bad (worn out or via MarkBad).
func (c *Chip) IsBad(block int) bool {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return true
	}
	return c.st.Blocks[block].Bad
}

// MarkBad marks a block bad, as a block manager does when it detects
// uncorrectable errors.
func (c *Chip) MarkBad(block int) error {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return ErrOutOfRange
	}
	c.st.Blocks[block].Bad = true
	return nil
}

// PageStateAt returns the state of the page for inspection in tests.
func (c *Chip) PageStateAt(block, page int) (PageState, error) {
	if err := c.checkAddr(block, page); err != nil {
		return 0, err
	}
	if page < int(c.st.Blocks[block].NextPage) {
		return PageProgrammed, nil
	}
	return PageErased, nil
}

// NextProgramPage returns the next page index that may be programmed in the
// block under the sequential-programming constraint, or PagesPerBlock if the
// block is full.
func (c *Chip) NextProgramPage(block int) (int, error) {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return 0, ErrOutOfRange
	}
	return int(c.st.Blocks[block].NextPage), nil
}

func (c *Chip) checkAddr(block, page int) error {
	if block < 0 || block >= c.cfg.geo.Blocks || page < 0 || page >= c.cfg.geo.PagesPerBlock {
		return ErrOutOfRange
	}
	return nil
}

func (c *Chip) pageIndex(block, page int) int64 {
	return int64(block)*int64(c.cfg.geo.PagesPerBlock) + int64(page)
}

// ReadPage reads one page into the plane's page register and transfers it to
// the controller, returning the operation's duration. Reading the page
// already held in the register skips the cell-array read (the page-cache
// effect Section 2.1 mentions).
func (c *Chip) ReadPage(block, page int) (time.Duration, error) {
	return c.ReadRun(block, page, 1)
}

// ReadRun reads the n >= 1 consecutive pages [first, first+n) of a block,
// returning their total duration. It validates once and either reads the
// whole run or fails without side effects, with the error the first
// offending page would have produced; on success the page register and the
// stats are exactly as after n single-page reads (only the run's first page
// can hit the register; the last one stays in it).
//
//uflint:hotpath
func (c *Chip) ReadRun(block, first, n int) (time.Duration, error) {
	if c.checkAddr(block, first) != nil || n < 1 {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	if cursor := int(b.NextPage); n > cursor-first {
		// The first page at or past the cursor is erased — unless the
		// cursor is the end of the block, where it is no page at all.
		if cursor < c.cfg.geo.PagesPerBlock {
			return 0, ErrReadErased
		}
		return 0, ErrOutOfRange
	}
	c.st.Stats.Reads += int64(n)
	plane := c.cfg.geo.Plane(block)
	misses := n
	if c.st.CachedBlock[plane] == block && c.st.CachedPage[plane] == first {
		misses--
	}
	c.st.CachedBlock[plane], c.st.CachedPage[plane] = block, first+n-1
	return time.Duration(n)*c.cfg.transfer + time.Duration(misses)*c.cfg.timing.ReadPage, nil
}

// ReadData returns the payload of a page; requires WithDataStorage. The
// returned slice aliases the chip's internal buffer and is only valid until
// the page is reprogrammed (after an erase, programming overwrites the same
// buffer in place); callers that retain the payload must copy it.
func (c *Chip) ReadData(block, page int) ([]byte, error) {
	if !c.cfg.storeData {
		return nil, ErrDataDisabled
	}
	if err := c.checkAddr(block, page); err != nil {
		return nil, err
	}
	if page >= int(c.st.Blocks[block].NextPage) {
		return nil, ErrReadErased
	}
	return c.st.Data[c.pageIndex(block, page)], nil
}

// ProgramPage programs one page, enforcing that the page is erased and that
// pages within a block are programmed in order. payload may be nil; when the
// chip stores data, the payload (up to PageSize bytes) is retained.
func (c *Chip) ProgramPage(block, page int, payload []byte) (time.Duration, error) {
	return c.ProgramRun(block, page, 1, payload)
}

// ProgramRun programs the n >= 1 consecutive pages [first, first+n) of a
// block, which must start at the block's program cursor, returning their total
// duration. payload may be nil; otherwise it is the pages' payloads back to
// back, PageSize bytes each (the last may be shorter), retained when the
// chip stores data. It validates once and either programs the whole run or
// fails without side effects, with the error the first offending page would
// have produced; on success the page register and the stats are exactly as
// after n single-page programs.
//
//uflint:hotpath
func (c *Chip) ProgramRun(block, first, n int, payload []byte) (time.Duration, error) {
	if c.checkAddr(block, first) != nil || n < 1 {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	switch cursor := int(b.NextPage); {
	case b.Bad:
		return 0, ErrBadBlock
	case first < cursor:
		return 0, ErrNotErased
	case first > cursor:
		return 0, ErrOutOfOrder
	case n > c.cfg.geo.PagesPerBlock-first:
		return 0, ErrOutOfRange
	case len(payload) > n*c.cfg.geo.PageSize:
		return 0, ErrPayloadTooLong
	}
	b.NextPage += int16(n)
	c.st.Stats.Programs += int64(n)
	if c.cfg.storeData {
		c.storeRun(c.pageIndex(block, first), n, payload)
	}
	// Invalidate the register if it held a page of this plane.
	plane := c.cfg.geo.Plane(block)
	c.st.CachedBlock[plane], c.st.CachedPage[plane] = -1, -1
	return time.Duration(n) * (c.cfg.transfer + c.cfg.timing.ProgramPage), nil
}

// storeRun retains the payloads of n pages starting at global page index
// idx, reusing each page's previous buffer (kept across erases) instead of
// allocating a fresh one per program.
func (c *Chip) storeRun(idx int64, n int, payload []byte) {
	for i := 0; i < n; i++ {
		page := payload[min(i*c.cfg.geo.PageSize, len(payload)):min((i+1)*c.cfg.geo.PageSize, len(payload))]
		buf := c.st.Data[idx+int64(i)]
		if cap(buf) >= len(page) {
			buf = buf[:len(page)]
		} else {
			buf = make([]byte, len(page))
		}
		copy(buf, page)
		c.st.Data[idx+int64(i)] = buf
	}
}

// EraseBlock erases a block, returning it to the all-erased state. When the
// erase budget for the cell type is exceeded the block is marked bad and
// ErrWornOut is returned.
func (c *Chip) EraseBlock(block int) (time.Duration, error) {
	if block < 0 || block >= c.cfg.geo.Blocks {
		return 0, ErrOutOfRange
	}
	b := &c.st.Blocks[block]
	if b.Bad {
		return 0, ErrBadBlock
	}
	b.EraseCount++
	c.st.Stats.Erases++
	if int(b.EraseCount) > c.cfg.cell.EraseLimit() {
		b.Bad = true
		return c.cfg.timing.EraseBlock, ErrWornOut
	}
	// Payload buffers are kept (the cursor already marks them stale) so the
	// next program of the page can overwrite them in place.
	b.NextPage = 0
	plane := c.cfg.geo.Plane(block)
	if c.st.CachedBlock[plane] == block {
		c.st.CachedBlock[plane], c.st.CachedPage[plane] = -1, -1
	}
	return c.cfg.timing.EraseBlock, nil
}
