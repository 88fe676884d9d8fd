package core

import (
	"fmt"
	"time"

	"uflip/internal/device"
)

// Experiment is one run specification inside a micro-benchmark: a reference
// pattern with a single varying parameter bound to a concrete value (design
// principle 2 of Section 3.2).
type Experiment struct {
	// Micro is the micro-benchmark name ("Granularity", ..., "Bursts").
	Micro string
	// Base is the baseline the pattern departs from.
	Base Baseline
	// Param and Value identify the varying parameter.
	Param string
	Value int64
	// Pattern is the fully bound reference pattern.
	Pattern Pattern
	// MixWith is the secondary pattern for Mix experiments (nil
	// otherwise); Ratio is the primary:secondary IO ratio.
	MixWith *Pattern
	Ratio   int
	// Degree is the replication factor for Parallelism experiments
	// (0 or 1 otherwise).
	Degree int
}

// ID returns a stable identifier such as "granularity/SW/IOSize=32768".
func (e *Experiment) ID() string {
	if e.MixWith != nil {
		return fmt.Sprintf("mix/%s-%s/Ratio=%d", e.Base, e.MixWith.Name, e.Ratio)
	}
	return fmt.Sprintf("%s/%s/%s=%d", e.Micro, e.Base, e.Param, e.Value)
}

// Run executes the experiment against dev starting at the given virtual
// time.
func (e *Experiment) Run(dev device.Device, startAt time.Duration) (*Run, error) {
	switch {
	case e.MixWith != nil:
		return ExecuteMix(dev, e.Pattern, *e.MixWith, e.Ratio, startAt)
	case e.Degree > 1:
		return ExecuteParallel(dev, e.Pattern, e.Degree, startAt)
	default:
		return ExecutePattern(dev, e.Pattern, startAt)
	}
}

// Microbenchmark is a named collection of experiments sharing one varying
// parameter (design principle 2).
type Microbenchmark struct {
	Name        string
	Param       string
	Description string
	Experiments []Experiment
}

// pow2 returns {1, 2, 4, ..., 2^maxExp} scaled by unit.
func pow2(maxExp int, unit int64) []int64 {
	out := make([]int64, 0, maxExp+1)
	for e := 0; e <= maxExp; e++ {
		out = append(out, unit<<e)
	}
	return out
}

// Granularity varies IOSize across the four baselines (micro-benchmark 1):
// [2^0 .. 2^9] x 512 B plus some non-powers of two, probing the mapping
// granularity of the flash translation layer.
func Granularity(d Defaults, capacity int64) Microbenchmark {
	sizes := pow2(9, SectorSize)
	for _, np := range []int64{3, 12, 48, 192} { // 1.5, 6, 24, 96 KB
		sizes = append(sizes, np*SectorSize)
	}
	mb := Microbenchmark{
		Name:        "Granularity",
		Param:       "IOSize",
		Description: "response time as a function of IO size, per baseline",
	}
	for _, b := range Baselines {
		for _, sz := range sizes {
			dd := d
			dd.IOSize = sz
			p := b.Pattern(dd)
			clampTarget(&p, capacity)
			p.Name = fmt.Sprintf("%s(IOSize=%d)", b, sz)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "IOSize", Value: sz, Pattern: p,
			})
		}
	}
	return mb
}

// Alignment varies IOShift from one sector up to IOSize with the IO size
// fixed (micro-benchmark 2).
func Alignment(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Alignment",
		Param:       "IOShift",
		Description: "impact of unaligned IOs, per baseline",
	}
	maxExp := 0
	for v := int64(SectorSize); v < d.IOSize; v <<= 1 {
		maxExp++
	}
	shifts := pow2(maxExp, SectorSize)
	for _, b := range Baselines {
		for _, sh := range shifts {
			if sh > d.IOSize {
				continue
			}
			p := b.Pattern(d)
			p.IOShift = sh
			clampTarget(&p, capacity)
			p.Name = fmt.Sprintf("%s(IOShift=%d)", b, sh)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "IOShift", Value: sh, Pattern: p,
			})
		}
	}
	return mb
}

// Locality varies TargetSize (micro-benchmark 3): random baselines from one
// IO slot up to 2^16 slots (bounded by the device), sequential baselines up
// to 2^8 slots with wrap-around.
func Locality(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Locality",
		Param:       "TargetSize",
		Description: "impact of focusing IOs on a small area",
	}
	for _, b := range Baselines {
		maxExp := 8
		if b.LBA() == Random {
			maxExp = 16
		}
		for _, ts := range pow2(maxExp, d.IOSize) {
			if ts > capacity/2 {
				break
			}
			p := b.Pattern(d)
			p.TargetSize = ts
			p.Name = fmt.Sprintf("%s(TargetSize=%d)", b, ts)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "TargetSize", Value: ts, Pattern: p,
			})
		}
	}
	return mb
}

// Partitioning varies the number of round-robin partitions for the
// sequential baselines (micro-benchmark 4), the pattern of a multi-way merge
// in an external sort. The target is sized so the run wraps each partition,
// exposing the replacement-block (or write-point) limit of the device.
func Partitioning(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Partitioning",
		Param:       "Partitions",
		Description: "concurrent sequential streams over N partitions",
	}
	target := int64(d.IOCount) * d.IOSize / 2 // wrap about twice
	if target > capacity/2 {
		target = capacity / 2
	}
	for _, b := range []Baseline{SR, SW} {
		for _, parts := range pow2(8, 1) {
			if target/parts < d.IOSize {
				break
			}
			p := b.Pattern(d)
			p.LBA = Partitioned
			p.Partitions = int(parts)
			p.TargetSize = target
			p.Name = fmt.Sprintf("%s(Partitions=%d)", b, parts)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "Partitions", Value: parts, Pattern: p,
			})
		}
	}
	return mb
}

// Order varies the linear LBA increment for the sequential baselines
// (micro-benchmark 5): reverse (-1), in-place (0) and strided (2^0..2^8)
// patterns.
func Order(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Order",
		Param:       "Incr",
		Description: "linearly increasing, decreasing and in-place LBAs",
	}
	incrs := append([]int64{-1, 0}, pow2(8, 1)...)
	for _, b := range []Baseline{SR, SW} {
		for _, incr := range incrs {
			p := b.Pattern(d)
			p.LBA = Ordered
			p.Incr = incr
			// Size the target to hold the whole strided run where the
			// device allows, so strides do not alias onto few slots.
			span := int64(d.IOCount) * d.IOSize
			if incr > 1 {
				span *= incr
			}
			if span > capacity/2 {
				span = capacity / 2
				span -= span % d.IOSize
			}
			if span < d.IOSize {
				span = d.IOSize
			}
			p.TargetSize = span
			p.Name = fmt.Sprintf("%s(Incr=%d)", b, incr)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "Incr", Value: incr, Pattern: p,
			})
		}
	}
	return mb
}

// Parallelism varies the replication degree of the four baselines
// (micro-benchmark 6): ParallelDegree in [2^0 .. 2^4].
func Parallelism(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Parallelism",
		Param:       "ParallelDegree",
		Description: "the same baseline replicated over N processes",
	}
	for _, b := range Baselines {
		for _, deg := range pow2(4, 1) {
			p := b.Pattern(d)
			if p.TargetSize < int64(deg)*p.IOSize {
				continue
			}
			clampTarget(&p, capacity)
			p.Name = fmt.Sprintf("%s(Par=%d)", b, deg)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "ParallelDegree", Value: deg,
				Pattern: p, Degree: int(deg),
			})
		}
	}
	return mb
}

// MixPairs lists the six baseline combinations of micro-benchmark 7 in the
// paper's order.
var MixPairs = [][2]Baseline{
	{SR, RR}, {SR, RW}, {SR, SW}, {RR, SW}, {RR, RW}, {SW, RW},
}

// Mix composes pairs of baselines with a varying ratio (micro-benchmark 7):
// Ratio IOs of the first per IO of the second, Ratio in [2^0 .. 2^6].
func Mix(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Mix",
		Param:       "Ratio",
		Description: "two baselines interleaved with a varying ratio",
	}
	for _, pair := range MixPairs {
		for _, ratio := range pow2(6, 1) {
			a := pair[0].Pattern(d)
			b := pair[1].Pattern(d)
			clampTarget(&a, capacity)
			clampTarget(&b, capacity)
			// Keep the two patterns in disjoint halves of the span so a
			// sequential stream is not corrupted by its partner.
			b.TargetOffset = a.TargetOffset + a.TargetSize
			a.Name = pair[0].String()
			b.Name = pair[1].String()
			mix := b
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: pair[0], Param: "Ratio", Value: ratio,
				Pattern: a, MixWith: &mix, Ratio: int(ratio),
			})
		}
	}
	return mb
}

// PauseMB varies the pause inserted between consecutive IOs (micro-
// benchmark 8): Pause in [2^0 .. 2^8] x 0.1 ms.
func PauseMB(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Pause",
		Param:       "Pause100us",
		Description: "pause between IOs, probing asynchronous reclamation",
	}
	for _, b := range Baselines {
		for _, mult := range pow2(8, 1) {
			p := b.Pattern(d)
			p.Pause = time.Duration(mult) * 100 * time.Microsecond
			clampTarget(&p, capacity)
			p.Name = fmt.Sprintf("%s(Pause=%s)", b, p.Pause)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "Pause100us", Value: mult, Pattern: p,
			})
		}
	}
	return mb
}

// Bursts fixes the pause (100 ms) and varies the burst length (micro-
// benchmark 9): Burst in [2^0 .. 2^6] x 10 IOs.
func Bursts(d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        "Bursts",
		Param:       "Burst",
		Description: "groups of IOs separated by a fixed pause",
	}
	for _, b := range Baselines {
		for _, mult := range pow2(6, 1) {
			p := b.Pattern(d)
			p.Pause = 100 * time.Millisecond
			p.Burst = int(mult) * 10
			clampTarget(&p, capacity)
			p.Name = fmt.Sprintf("%s(Burst=%d)", b, p.Burst)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "Burst", Value: mult * 10, Pattern: p,
			})
		}
	}
	return mb
}

// AllMicrobenchmarks returns the nine micro-benchmarks of Table 1, bounded
// to a device capacity.
func AllMicrobenchmarks(d Defaults, capacity int64) []Microbenchmark {
	return []Microbenchmark{
		Granularity(d, capacity),
		Alignment(d, capacity),
		Locality(d, capacity),
		Partitioning(d, capacity),
		Order(d, capacity),
		Parallelism(d, capacity),
		Mix(d, capacity),
		PauseMB(d, capacity),
		Bursts(d, capacity),
	}
}

// clampTarget shrinks a pattern's target to fit the device.
func clampTarget(p *Pattern, capacity int64) {
	if capacity <= 0 {
		return
	}
	limit := capacity / 2
	if p.TargetSize > limit {
		p.TargetSize = limit - limit%p.IOSize
	}
	if p.TargetSize < p.IOSize {
		p.TargetSize = p.IOSize
	}
}
