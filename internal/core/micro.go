package core

import (
	"cmp"
	"fmt"
	"strings"
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

// Run executes the experiment on sc against dev starting at the given
// virtual time.
func (e *Experiment) Run(sc *Scratch, dev device.Device, startAt time.Duration) (*Run, error) {
	switch {
	case e.MixWith != nil:
		return ExecuteMix(sc, dev, e.Pattern, *e.MixWith, e.Ratio, startAt)
	case e.Degree > 1:
		return ExecuteParallel(sc, dev, e.Pattern, e.Degree, startAt)
	default:
		return ExecutePattern(sc, dev, e.Pattern, startAt)
	}
}

// Check reports whether the experiment runs to the end on a device of
// capacity bytes: Run's executor accepts it (a valid pattern, a mix's ratio
// and partner, a parallel run's split among Degree processes) and the pattern
// and a mix's partner end within the device. A run that fits allocates nothing.
func (e *Experiment) Check(capacity int64) error {
	var err error
	switch {
	case e.MixWith != nil:
		err = checkMix(&e.Pattern, e.MixWith, e.Ratio)
	case e.Degree > 1:
		_, err = split(&e.Pattern, e.Degree)
	default:
		err = e.Pattern.Validate()
	}
	for _, p := range [...]*Pattern{&e.Pattern, cmp.Or(e.MixWith, &e.Pattern)} {
		if _, hi := p.Span(); err == nil && hi > capacity {
			err = fmt.Errorf("core: %s ends at byte %d, past the %d bytes of the device", p.Name, hi, capacity)
		}
	}
	return err
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

// granularity varies IOSize across the four baselines (micro-benchmark 1):
// [2^0 .. 2^9] x 512 B plus some non-powers of two, probing the mapping
// granularity of the flash translation layer.
func granularity(name string, d Defaults, capacity int64) Microbenchmark {
	sizes := pow2(9, SectorSize)
	for _, np := range []int64{3, 12, 48, 192} { // 1.5, 6, 24, 96 KB
		sizes = append(sizes, np*SectorSize)
	}
	mb := Microbenchmark{
		Name:        name,
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

// alignment varies IOShift from one sector up to IOSize with the IO size
// fixed (micro-benchmark 2).
func alignment(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
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

// locality varies TargetSize (micro-benchmark 3): random baselines from one
// IO slot up to 2^16 slots (bounded by the device), sequential baselines up
// to 2^8 slots with wrap-around.
func locality(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
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

// partitioning varies the number of round-robin partitions for the
// sequential baselines (micro-benchmark 4), the pattern of a multi-way merge
// in an external sort. The target is sized so the run wraps each partition,
// exposing the replacement-block (or write-point) limit of the device.
func partitioning(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
		Param:       "Partitions",
		Description: "concurrent sequential streams over N partitions",
	}
	target := int64(d.IOCount) * d.IOSize / 2 // wrap about twice
	if target > capacity/2 {
		target = capacity / 2
	}
	for _, b := range []Baseline{SR, SW} {
		for _, parts := range pow2(8, 1) {
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

// order varies the linear LBA increment for the sequential baselines
// (micro-benchmark 5): reverse (-1), in-place (0) and strided (2^0..2^8)
// patterns.
func order(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
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
			p.TargetSize = int64(d.IOCount) * d.IOSize * max(incr, 1)
			clampTarget(&p, capacity)
			p.Name = fmt.Sprintf("%s(Incr=%d)", b, incr)
			mb.Experiments = append(mb.Experiments, Experiment{
				Micro: mb.Name, Base: b, Param: "Incr", Value: incr, Pattern: p,
			})
		}
	}
	return mb
}

// parallelism varies the replication degree of the four baselines
// (micro-benchmark 6): ParallelDegree in [2^0 .. 2^4]. A degree whose split
// the device cannot hold is left to Check (methodology.BuildPlan drops it).
func parallelism(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
		Param:       "ParallelDegree",
		Description: "the same baseline replicated over N processes",
	}
	for _, b := range Baselines {
		for _, deg := range pow2(4, 1) {
			p := b.Pattern(d)
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

// mix composes pairs of baselines with a varying ratio (micro-benchmark 7):
// Ratio IOs of the first per IO of the second, Ratio in [2^0 .. 2^6].
func mix(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
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

// pause varies the pause inserted between consecutive IOs (micro-
// benchmark 8): Pause in [2^0 .. 2^8] x 0.1 ms.
func pause(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
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

// bursts fixes the pause (100 ms) and varies the burst length (micro-
// benchmark 9): Burst in [2^0 .. 2^6] x 10 IOs.
func bursts(name string, d Defaults, capacity int64) Microbenchmark {
	mb := Microbenchmark{
		Name:        name,
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

// Micro is one micro-benchmark of Table 1: its name, and the builder of its
// experiments under that name.
type Micro struct {
	Name  string
	build func(name string, d Defaults, capacity int64) Microbenchmark
}

// Build returns the micro-benchmark's experiments, bounded to a device
// capacity.
func (m Micro) Build(d Defaults, capacity int64) Microbenchmark {
	return m.build(m.Name, d, capacity)
}

// Table1 lists the nine micro-benchmarks of Table 1 in order. It is the one
// place each one's name is written.
var Table1 = [...]Micro{
	{"Granularity", granularity},
	{"Alignment", alignment},
	{"Locality", locality},
	{"Partitioning", partitioning},
	{"Order", order},
	{"Parallelism", parallelism},
	{"Mix", mix},
	{"Pause", pause},
	{"Bursts", bursts},
}

// LookupMicro returns the micro-benchmark of Table 1 that name names, in any
// case and with surrounding spaces, without building any.
func LookupMicro(name string) (Micro, error) {
	key := strings.ToLower(strings.TrimSpace(name))
	known := make([]string, len(Table1))
	for i, m := range Table1 {
		if strings.ToLower(m.Name) == key {
			return m, nil
		}
		known[i] = m.Name
	}
	return Micro{}, fmt.Errorf("unknown micro-benchmark %q (known: %s)", name, strings.Join(known, ", "))
}

// AllMicrobenchmarks returns the nine micro-benchmarks of Table 1, bounded
// to a device capacity.
func AllMicrobenchmarks(d Defaults, capacity int64) []Microbenchmark {
	out := make([]Microbenchmark, len(Table1))
	for i, m := range Table1 {
		out[i] = m.Build(d, capacity)
	}
	return out
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
