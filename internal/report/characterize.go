package report

import (
	"math"
	"time"

	"uflip/internal/core"
	"uflip/internal/methodology"
)

// DeviceCharacter is one row of Table 3: the small set of performance
// indicators that, per Section 5.2, succinctly capture a device.
type DeviceCharacter struct {
	Device string
	// Baseline costs at 32 KB, milliseconds.
	SRms, RRms, SWms, RWms float64
	// PauseEffectMS is the pause length (ms) at which random writes start
	// behaving like sequential writes; 0 when pausing has no effect
	// (no asynchronous reclamation).
	PauseEffectMS float64
	// LocalityMB is the size of the area within which random writes stay
	// cheap; LocalityFactor is their cost there relative to SW.
	// LocalityMB = 0 means no locality benefit.
	LocalityMB     int64
	LocalityFactor float64
	// Partitions is how many concurrent sequential-write partitions the
	// device tolerates; PartitionFactor the cost there relative to
	// single-stream SW.
	Partitions      int64
	PartitionFactor float64
	// ReverseFactor and InPlaceFactor are the Order micro-benchmark costs
	// (Incr=-1 and Incr=0) relative to SW.
	ReverseFactor, InPlaceFactor float64
	// LargeIncrFactor is the cost of large-stride ordered writes (1-8 MB
	// gaps) relative to RW.
	LargeIncrFactor float64
}

func meanMS(r *methodology.Result) float64 {
	if r == nil || r.Run == nil {
		return math.NaN()
	}
	return r.Run.Summary.Mean * 1e3
}

// Characterize condenses a device's benchmark results into its Table 3 row.
// It expects the results to include the Granularity, Locality, Partitioning,
// Order and Pause micro-benchmarks; missing pieces yield NaN/zero fields.
func Characterize(res *methodology.Results, ioSize int64) DeviceCharacter {
	c := DeviceCharacter{Device: res.Device}
	c.SRms = meanMS(res.Find("Granularity", core.SR, ioSize))
	c.RRms = meanMS(res.Find("Granularity", core.RR, ioSize))
	c.SWms = meanMS(res.Find("Granularity", core.SW, ioSize))
	c.RWms = meanMS(res.Find("Granularity", core.RW, ioSize))

	c.PauseEffectMS = pauseEffect(res, c.SWms, c.RWms)
	c.LocalityMB, c.LocalityFactor = locality(res, ioSize, c.SWms, c.RWms)
	c.Partitions, c.PartitionFactor = partitions(res, c.SWms)
	if sw := meanMS(res.Find("Order", core.SW, 1)); sw > 0 {
		c.ReverseFactor = meanMS(res.Find("Order", core.SW, -1)) / sw
		c.InPlaceFactor = meanMS(res.Find("Order", core.SW, 0)) / sw
	}
	c.LargeIncrFactor = largeIncr(res, c.RWms)
	return c
}

// pauseEffect returns the smallest pause at which RW cost (pause excluded
// from the response time accounting is impossible, so we compare against the
// baseline RW) drops near SW — the Table 3 Pause column.
func pauseEffect(res *methodology.Results, swMS, rwMS float64) float64 {
	if math.IsNaN(swMS) || math.IsNaN(rwMS) || rwMS < 2*swMS {
		return 0
	}
	threshold := 2 * swMS
	best := 0.0
	for mult := int64(1); mult <= 256; mult *= 2 {
		r := res.Find("Pause", core.RW, mult)
		if r == nil {
			continue
		}
		// The pause is part of the submission schedule, not the response
		// time, so the run's mean response time directly reflects the
		// device cost.
		if m := meanMS(r); m <= threshold {
			best = float64(mult) * 0.1
			break
		}
	}
	return best
}

// locality returns the largest random-write target size whose cost stays
// below the midpoint between SW and full RW, plus the relative cost there.
func locality(res *methodology.Results, ioSize int64, swMS, rwMS float64) (int64, float64) {
	if math.IsNaN(swMS) || math.IsNaN(rwMS) || swMS <= 0 {
		return 0, 0
	}
	threshold := math.Sqrt(swMS * rwMS) // geometric midpoint
	var areaBytes int64
	factor := 0.0
	maxWithin := 0.0
	for exp := 0; exp <= 16; exp++ {
		ts := ioSize << exp
		r := res.Find("Locality", core.RW, ts)
		if r == nil {
			continue
		}
		m := meanMS(r)
		if m > threshold {
			break
		}
		if m > maxWithin {
			maxWithin = m
		}
		areaBytes = ts
		factor = maxWithin / swMS
	}
	if areaBytes < 2*1024*1024 {
		// The paper reports "No" when even small areas do not help.
		return 0, 0
	}
	return areaBytes / (1024 * 1024), factor
}

// partitions returns the number of concurrent sequential-write partitions
// tolerated before cost jumps, and the relative cost at that point.
func partitions(res *methodology.Results, swMS float64) (int64, float64) {
	base := meanMS(res.Find("Partitioning", core.SW, 1))
	if math.IsNaN(base) || base <= 0 {
		return 0, 0
	}
	// Find the largest parameter value before the steepest relative jump.
	type pt struct {
		p int64
		m float64
	}
	var series []pt
	for p := int64(1); p <= 256; p *= 2 {
		if r := res.Find("Partitioning", core.SW, p); r != nil {
			series = append(series, pt{p, meanMS(r)})
		}
	}
	if len(series) < 2 {
		return series[0].p, series[0].m / swMS
	}
	// Tolerance ends at the first significant cost jump (2x); without one
	// the device tolerates every partition count probed.
	for i := 1; i < len(series); i++ {
		if series[i-1].m > 0 && series[i].m/series[i-1].m >= 2 {
			return series[i-1].p, series[i-1].m / swMS
		}
	}
	last := series[len(series)-1]
	return last.p, last.m / swMS
}

// largeIncr averages the cost of strided ordered writes with large (1-8 MB
// at full device scale) gaps relative to RW (Table 3, final column). Strides
// whose wrapped pattern aliases onto too few distinct positions for the
// device capacity are skipped: they would measure cache residency, not
// strided writing.
func largeIncr(res *methodology.Results, rwMS float64) float64 {
	if math.IsNaN(rwMS) || rwMS <= 0 {
		return 0
	}
	var sum float64
	var n int
	for _, incr := range []int64{32, 64, 128, 256} { // 1-8 MB at 32 KB IOs
		r := res.Find("Order", core.SW, incr)
		if r == nil {
			continue
		}
		p := r.Exp.Pattern
		if p.Incr > 0 && p.TargetSize/(p.Incr*p.IOSize) < 256 {
			continue // aliases onto < 256 positions at this capacity
		}
		sum += meanMS(r)
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n) / rwMS
}

// CharacterTable renders Table 3 from a set of device characters.
func CharacterTable(chars []DeviceCharacter) *Table {
	t := &Table{
		Title: "Table 3: Result summary (times in ms; factors relative to SW, large-Incr relative to RW)",
		Headers: []string{
			"Device", "SR", "RR", "SW", "RW",
			"Pause(RW)", "Locality(RW)", "Partitioning(RW)", "Reverse", "In-Place", "LargeIncr",
		},
	}
	var buf [32]byte
	trim := func(f float64) string { return string(appendTrimFloat(buf[:0], f)) }
	fmtFactor := func(f float64) string {
		switch {
		case f == 0:
			return "-"
		case f < 1.25:
			return "="
		default:
			return trim(f) + "x"
		}
	}
	for _, c := range chars {
		pause := "-"
		if c.PauseEffectMS > 0 {
			pause = trim(c.PauseEffectMS)
		}
		loc := "No"
		if c.LocalityMB > 0 {
			loc = trim(float64(c.LocalityMB)) + " (" + fmtFactor(c.LocalityFactor) + ")"
		}
		part := "-"
		if c.Partitions > 0 {
			part = trim(float64(c.Partitions)) + " (" + fmtFactor(c.PartitionFactor) + ")"
		}
		t.AddRow(c.Device, c.SRms, c.RRms, c.SWms, c.RWms,
			pause, loc, part, fmtFactor(c.ReverseFactor), fmtFactor(c.InPlaceFactor), fmtFactor(c.LargeIncrFactor))
	}
	return t
}

// PhaseTable renders the start-up/period analysis of a device (the data
// behind Figures 3 and 4 and the IOIgnore/IOCount choices of Section 5.1).
func PhaseTable(rep *methodology.PhaseReport) *Table {
	t := &Table{
		Title:   "Start-up and running phases (" + rep.Device + ")",
		Headers: []string{"Pattern", "StartUp", "Period", "Oscillates", "Cheap(ms)", "Expensive(ms)", "IOIgnore", "IOCount"},
	}
	for _, b := range core.Baselines {
		an := rep.Baseline[b]
		t.AddRow(b.String(), an.StartUp, an.Period, an.Oscillates,
			an.CheapLevel*1e3, an.ExpensiveLevel*1e3, rep.IOIgnore[b], rep.IOCount[b])
	}
	return t
}

// RunningAverageSeries converts a duration series to the x/y slices the
// figures plot (running average in ms against IO number).
func RunningAverageSeries(rts []time.Duration) ([]float64, []float64) {
	xs := make([]float64, len(rts))
	ys := make([]float64, len(rts))
	var sum time.Duration
	for i, rt := range rts {
		sum += rt
		xs[i] = float64(i)
		ys[i] = (sum / time.Duration(i+1)).Seconds() * 1e3
	}
	return xs, ys
}
