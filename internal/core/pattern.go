// Package core implements the uFLIP benchmark itself (Section 3 of the
// paper): IO patterns — distributions of IOs in time and space — defined by
// four attributes (submission time, size, logical block address, mode),
// the four baseline patterns (SR, RR, SW, RW), mixed and parallel patterns,
// the run executor that measures per-IO response times, and the nine
// micro-benchmarks of Table 1.
package core

import (
	"fmt"
	"math/rand"
	"time"

	"uflip/internal/device"
)

// SectorSize is the addressing granularity of every device in the paper.
const SectorSize = 512

// LBAKind selects the location function of Section 3.1.
type LBAKind int

const (
	// Sequential: LBA(IOi) = TargetOffset + IOShift + i*IOSize, wrapping
	// modulo TargetSize rounded down to whole IOs (the locality variant of
	// Table 1; the baseline simply sizes the target so no wrap occurs).
	Sequential LBAKind = iota
	// Random: LBA(IOi) = TargetOffset + IOShift +
	// random(TargetSize/IOSize)*IOSize.
	Random
	// Ordered: LBA(IOi) = TargetOffset + IOShift + Incr*i*IOSize, wrapped
	// into the target. Incr = -1 is the reverse pattern, Incr = 0 the
	// in-place pattern, Incr > 1 a strided pattern.
	Ordered
	// Partitioned: the target is divided into Partitions partitions
	// visited round-robin, sequentially within each (Table 1:
	// LBA = Pi*PS + Oi with PS = TargetSize/Partitions rounded down to
	// whole IOs, Pi = i mod Partitions, Oi = floor(i/Partitions)*IOSize mod PS).
	Partitioned
)

// String names the location function.
func (k LBAKind) String() string {
	switch k {
	case Sequential:
		return "seq"
	case Random:
		return "rnd"
	case Ordered:
		return "ordered"
	case Partitioned:
		return "partitioned"
	default:
		return fmt.Sprintf("LBAKind(%d)", int(k))
	}
}

// Pattern is a fully parameterized IO pattern: the basic construct of uFLIP
// (Section 3.1). The zero value is not valid; use the baseline constructors
// or fill every relevant field and call Validate.
type Pattern struct {
	Name string

	// The four IO attributes.
	Mode   device.Mode
	IOSize int64
	LBA    LBAKind

	// Location parameters.
	TargetOffset int64
	TargetSize   int64
	IOShift      int64 // alignment offset added to every LBA
	Incr         int64 // Ordered only
	Partitions   int   // Partitioned only

	// Timing parameters: consecutive when Pause == 0; pause(Pause) when
	// Burst <= 1; burst(Pause, Burst) otherwise (a pause of length Pause
	// between groups of Burst IOs).
	Pause time.Duration
	Burst int

	// Run-length parameters (set by the methodology, Section 4.2).
	IOCount  int
	IOIgnore int

	// Seed makes the random location function reproducible.
	Seed int64
}

// Validate reports whether the pattern is internally consistent.
func (p *Pattern) Validate() error {
	switch {
	case p.IOSize <= 0:
		return fmt.Errorf("core: IOSize %d must be positive", p.IOSize)
	case p.IOSize%SectorSize != 0:
		return fmt.Errorf("core: IOSize %d must be a multiple of the %dB sector", p.IOSize, SectorSize)
	case p.TargetSize < p.IOSize:
		return fmt.Errorf("core: TargetSize %d smaller than IOSize %d", p.TargetSize, p.IOSize)
	case p.TargetOffset < 0:
		return fmt.Errorf("core: TargetOffset %d must be non-negative", p.TargetOffset)
	case p.IOShift < 0 || p.IOShift > p.IOSize:
		return fmt.Errorf("core: IOShift %d must be in [0, IOSize]", p.IOShift)
	case p.IOCount <= 0:
		return fmt.Errorf("core: IOCount %d must be positive", p.IOCount)
	case p.IOIgnore < 0 || p.IOIgnore >= p.IOCount:
		return fmt.Errorf("core: IOIgnore %d must be in [0, IOCount)", p.IOIgnore)
	case p.Pause < 0:
		return fmt.Errorf("core: Pause must be non-negative")
	case p.LBA == Partitioned && p.Partitions < 1:
		return fmt.Errorf("core: Partitioned pattern needs Partitions >= 1")
	}
	if p.LBA == Partitioned {
		ps := p.TargetSize / int64(p.Partitions)
		if ps < p.IOSize {
			return fmt.Errorf("core: partition size %d smaller than IOSize %d", ps, p.IOSize)
		}
	}
	return nil
}

// mod64 is the non-negative modulo.
func mod64(a, m int64) int64 {
	if m <= 0 {
		return a
	}
	r := a % m
	if r < 0 {
		r += m
	}
	return r
}

// Span returns the byte range [lo, hi) the pattern can touch, used by the
// benchmark plan to allocate disjoint target spaces.
func (p *Pattern) Span() (lo, hi int64) {
	lo = p.TargetOffset
	hi = p.TargetOffset + p.IOShift + p.TargetSize
	return lo, hi
}

// IOSource yields the successive IOs of a pattern or pattern combination.
type IOSource interface {
	// Next returns the next IO, or ok=false when the source is exhausted.
	Next() (io device.IO, ok bool)
}

// patternSource iterates a single pattern. reset computes what the location
// function of Section 3.1 needs once per source, and Next advances a cursor
// by it, so an IO costs no division (Random: its draw). Sequential and
// Ordered are Partitioned with one partition.
type patternSource struct {
	p     Pattern
	i     int
	slots int64      // IO-sized slots in the target: Random draws among them
	wrap  int64      // where the cursor wraps: a partition (the target) rounded down to whole IOs
	span  int64      // the partitions together: where a round of them ends
	step  int64      // what the cursor advances by after a round, reduced modulo wrap
	cur   int64      // the cursor: the next IO's offset in its partition
	start int64      // the start of the next IO's partition
	rng   *rand.Rand // drawn from only when p is Random; kept across resets
}

// reset points s at the start of p. A Random pattern's generator is reseeded
// with p.Seed, which yields the same stream as a new generator, so reusing a
// source never changes the IOs it yields.
func (s *patternSource) reset(p *Pattern) {
	s.p, s.i, s.cur, s.start = *p, 0, 0, 0
	s.slots = max(p.TargetSize/p.IOSize, 1)
	s.wrap = s.slots * p.IOSize
	s.span, s.step = s.wrap, mod64(p.Incr*p.IOSize, s.wrap) // Ordered
	switch p.LBA {
	case Sequential:
		s.step = mod64(p.IOSize, s.wrap)
	case Partitioned:
		s.wrap = p.TargetSize / int64(p.Partitions) / p.IOSize * p.IOSize // Validate refuses less than one IO
		s.span, s.step = s.wrap*int64(p.Partitions), mod64(p.IOSize, s.wrap)
	}
	if p.LBA == Random {
		if s.rng == nil {
			s.rng = rand.New(rand.NewSource(p.Seed))
		} else {
			s.rng.Seed(p.Seed)
		}
	}
}

// offset returns the next IO's offset in the target and moves past it. The
// partitions are visited round-robin at one cursor, which advances after
// each round. Every kind wraps within whole IOs, so no IO ends past Span.
func (s *patternSource) offset() int64 {
	switch s.p.LBA {
	case Random:
		return s.rng.Int63n(s.slots) * s.p.IOSize
	case Sequential, Ordered, Partitioned:
		rel := s.start + s.cur
		if s.start += s.wrap; s.start == s.span {
			s.start = 0
			if s.cur += s.step; s.cur >= s.wrap {
				s.cur -= s.wrap
			}
		}
		return rel
	}
	return 0
}

func (s *patternSource) Next() (device.IO, bool) {
	if s.i >= s.p.IOCount {
		return device.IO{}, false
	}
	io := device.IO{Mode: s.p.Mode, Off: s.p.TargetOffset + s.p.IOShift + s.offset(), Size: s.p.IOSize}
	s.i++
	return io, true
}

// MixSource interleaves two patterns with a ratio (the Mix micro-benchmark):
// Ratio IOs of the first pattern for each IO of the second.
type MixSource struct {
	a, b  IOSource
	ratio int
	i     int
}

// NewMixSource builds a mix interleaving ratio IOs of a per IO of b.
func NewMixSource(a, b IOSource, ratio int) MixSource {
	if ratio < 1 {
		ratio = 1
	}
	return MixSource{a: a, b: b, ratio: ratio}
}

// Next alternates between the two sources according to the ratio. The mix is
// exhausted when either source is.
func (m *MixSource) Next() (device.IO, bool) {
	var io device.IO
	var ok bool
	if m.i%(m.ratio+1) < m.ratio {
		io, ok = m.a.Next()
	} else {
		io, ok = m.b.Next()
	}
	m.i++
	return io, ok
}
