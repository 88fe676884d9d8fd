package core

import (
	"fmt"

	"uflip/internal/device"
)

// Baseline identifies one of the four baseline patterns of Section 3.1: the
// cross product of {sequential, random} x {read, write} with consecutive
// timing and a constant IO size.
type Baseline int

const (
	// SR is sequential read.
	SR Baseline = iota
	// RR is random read.
	RR
	// SW is sequential write.
	SW
	// RW is random write.
	RW
)

// Baselines lists the four baseline patterns in the paper's order.
var Baselines = []Baseline{SR, RR, SW, RW}

// String returns the paper's two-letter abbreviation.
func (b Baseline) String() string {
	switch b {
	case SR:
		return "SR"
	case RR:
		return "RR"
	case SW:
		return "SW"
	case RW:
		return "RW"
	default:
		return fmt.Sprintf("Baseline(%d)", int(b))
	}
}

// ParseBaseline parses a two-letter baseline name.
func ParseBaseline(s string) (Baseline, error) {
	switch s {
	case "SR":
		return SR, nil
	case "RR":
		return RR, nil
	case "SW":
		return SW, nil
	case "RW":
		return RW, nil
	}
	return 0, fmt.Errorf("core: unknown baseline %q (want SR, RR, SW or RW)", s)
}

// Mode returns the IO mode of the baseline.
func (b Baseline) Mode() device.Mode {
	if b == SR || b == RR {
		return device.Read
	}
	return device.Write
}

// LBA returns the location function of the baseline.
func (b Baseline) LBA() LBAKind {
	if b == SR || b == SW {
		return Sequential
	}
	return Random
}

// Defaults bundles the parameter values shared by a benchmark's reference
// patterns; the paper fixes IOSize to 32 KB after the Granularity
// micro-benchmark and targets random IOs at a bounded area.
type Defaults struct {
	// IOSize is the constant IO size (32 KB in the paper's experiments).
	IOSize int64
	// RandomTarget is the TargetSize used by random baselines.
	RandomTarget int64
	// IOCount and IOIgnore are the methodology-chosen run lengths
	// (Section 4.2); experiment generators copy them into each pattern.
	IOCount  int
	IOIgnore int
	// Seed is the base seed for random location functions.
	Seed int64
}

// StandardDefaults returns the paper's reference parameters: 32 KB IOs and
// 1,024-IO runs. Its 128 MB random target is a capacity-free placeholder:
// every pipeline that runs on a device overrides it with RandomTargetFor.
func StandardDefaults() Defaults {
	return Defaults{
		IOSize:       32 * 1024,
		RandomTarget: 128 * 1024 * 1024,
		IOCount:      1024,
		IOIgnore:     0,
		Seed:         1,
	}
}

// RandomTargetFor returns the target random baselines roam on a device of
// the given capacity: half of it, so the write-buffer locality window stays
// a small fraction of the working set, as on the paper's full-size devices.
func RandomTargetFor(capacity int64) int64 { return capacity / 2 }

// Pattern materializes the baseline with the given defaults at target offset
// zero. Sequential baselines size their target to exactly cover the run so
// the pattern never wraps.
func (b Baseline) Pattern(d Defaults) Pattern {
	p := Pattern{
		Name:     b.String(),
		Mode:     b.Mode(),
		IOSize:   d.IOSize,
		LBA:      b.LBA(),
		IOCount:  d.IOCount,
		IOIgnore: d.IOIgnore,
		Seed:     d.Seed,
	}
	if b.LBA() == Sequential {
		p.TargetSize = int64(d.IOCount) * d.IOSize
	} else {
		p.TargetSize = d.RandomTarget
	}
	return p
}
