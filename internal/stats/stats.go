// Package stats provides the statistical summaries uFLIP computes over
// per-IO response times (Section 3.2, design principle 1: min, max, mean,
// standard deviation per run), plus the series analysis helpers the
// benchmarking methodology needs (start-up phase and oscillation-period
// estimation, Section 4.2).
package stats

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// Running accumulates streaming statistics using Welford's algorithm, so a
// run of millions of IOs can be summarized without retaining every sample.
// The zero value is an empty accumulator ready for use.
type Running struct {
	n    int64
	mean float64
	m2   float64
	min  float64
	max  float64
}

// Add records one observation.
func (r *Running) Add(x float64) {
	r.n++
	if r.n == 1 {
		r.min, r.max = x, x
	} else {
		if x < r.min {
			r.min = x
		}
		if x > r.max {
			r.max = x
		}
	}
	delta := x - r.mean
	r.mean += delta / float64(r.n)
	// The conversion rounds the product before the add: without it arm64,
	// ppc64 and s390x fuse the two and every stddev differs in its last bits.
	r.m2 += float64(delta * (x - r.mean))
}

// AddDuration records one observation expressed as a duration, in seconds.
func (r *Running) AddDuration(d time.Duration) { r.Add(d.Seconds()) }

// N returns the number of observations.
func (r *Running) N() int64 { return r.n }

// Mean returns the sample mean. An empty accumulator returns 0 — callers
// that must distinguish "no samples" from "mean of zero" check N first.
func (r *Running) Mean() float64 { return r.mean }

// Min returns the smallest observation. An empty accumulator returns 0, not
// +Inf: the zero value is the documented "no samples" result, so negative
// observations are only reported once at least one sample exists.
func (r *Running) Min() float64 {
	if r.n == 0 {
		return 0
	}
	return r.min
}

// Max returns the largest observation, or 0 for an empty accumulator (see
// Min for the zero-value contract).
func (r *Running) Max() float64 {
	if r.n == 0 {
		return 0
	}
	return r.max
}

// Variance returns the sample variance (n-1 denominator). Fewer than two
// observations return 0: one sample has no spread to estimate, and the
// n-1 denominator would otherwise divide by zero.
func (r *Running) Variance() float64 {
	if r.n < 2 {
		return 0
	}
	// Welford's m2 is non-negative in exact arithmetic, but floating-point
	// cancellation can drive it a hair below zero on near-constant inputs;
	// clamp so StdDev never returns NaN.
	if r.m2 < 0 {
		return 0
	}
	return r.m2 / float64(r.n-1)
}

// StdDev returns the sample standard deviation, with the same n < 2 and
// zero-value guarantees as Variance (never NaN).
func (r *Running) StdDev() float64 { return math.Sqrt(r.Variance()) }

// Summary is an immutable snapshot of a Running accumulator. All values are
// in seconds when produced from response times.
type Summary struct {
	N      int64   `json:"n"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
	Mean   float64 `json:"mean"`
	StdDev float64 `json:"stddev"`
}

// Summary returns a snapshot of the accumulated statistics.
func (r *Running) Summary() Summary {
	return Summary{N: r.n, Min: r.Min(), Max: r.Max(), Mean: r.mean, StdDev: r.StdDev()}
}

// String formats the summary with millisecond-scaled values, the unit the
// paper reports.
func (s Summary) String() string {
	return fmt.Sprintf("n=%d min=%.3fms max=%.3fms mean=%.3fms sd=%.3fms",
		s.N, s.Min*1e3, s.Max*1e3, s.Mean*1e3, s.StdDev*1e3)
}

// Summarize computes a Summary over a slice of durations.
func Summarize(samples []time.Duration) Summary {
	var r Running
	for _, d := range samples {
		r.AddDuration(d)
	}
	return r.Summary()
}

// Percentiles returns the requested percentiles (each 0 <= p <= 100, clamped
// otherwise) of the samples using linear interpolation between closest
// ranks: PercentilesInPlace over a private copy. It returns nil for no
// percentiles and all-zero values for an empty sample slice. The input is
// not modified.
func Percentiles(samples []time.Duration, ps ...float64) []time.Duration {
	if len(ps) == 0 {
		return nil
	}
	work := make([]time.Duration, len(samples))
	copy(work, samples)
	return PercentilesInPlace(work, ps...)
}

// PercentilesInPlace is Percentiles for a caller that is done with the
// order of samples: it rearranges them instead of copying them. This is
// selection, not a sort: the samples are partitioned until just the order
// statistics the percentiles read (the floor and ceil rank of each) sit
// where a sort would put them, so p50/p95/p99 of a long response-time series
// cost O(n) — and the values are those of PercentilesSorted over a sorted
// copy, for every input.
func PercentilesInPlace(samples []time.Duration, ps ...float64) []time.Duration {
	if len(ps) == 0 {
		return nil
	}
	out := make([]time.Duration, len(ps))
	if len(samples) == 0 {
		return out
	}
	// The rank scratch is a fixed stack array, so long percentile lists are
	// placed a batch at a time; each batch finds the samples further
	// partitioned.
	var ranks [2 * rankBatch]int
	for base := 0; base < len(ps); base += rankBatch {
		batch := ps[base:min(base+rankBatch, len(ps))]
		for i, p := range batch {
			ranks[2*i], ranks[2*i+1], _ = rankOf(len(samples), p)
		}
		need := ranks[:2*len(batch)]
		slices.Sort(need)
		selectRanks(samples, 0, need)
		for i, p := range batch {
			out[base+i] = percentileSorted(samples, p)
		}
	}
	return out
}

// rankBatch is how many percentiles Percentiles places per selection pass.
const rankBatch = 8

// PercentilesSorted is Percentiles over samples the caller has already
// sorted ascending: no copy, no sort, no allocation beyond the result.
func PercentilesSorted(sorted []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(sorted) == 0 {
		return out
	}
	for i, p := range ps {
		out[i] = percentileSorted(sorted, p)
	}
	return out
}

// rankOf returns the closest ranks around the p-th percentile of n > 0
// samples (p clamped to [0, 100]) and how far between them it falls.
func rankOf(n int, p float64) (lo, hi int, frac float64) {
	p = min(max(p, 0), 100)
	rank := float64(p / 100 * float64(n-1)) // rounded here, not fused into rank - lo below
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// percentileSorted reads the p-th percentile off sorted, of which only the
// two ranks rankOf names need to be in their sorted places.
func percentileSorted(sorted []time.Duration, p float64) time.Duration {
	lo, hi, frac := rankOf(len(sorted), p)
	if lo == hi {
		return sorted[lo]
	}
	return sorted[lo] + time.Duration(frac*float64(sorted[hi]-sorted[lo]))
}

// selectRanks rearranges s, the window of a longer slice that starts at
// index off, until every index in ranks (ascending, all inside the window)
// holds the value a full sort would put there: a three-way quickselect that
// follows several ranks at once and never orders a stretch no rank falls in.
func selectRanks(s []time.Duration, off int, ranks []int) {
	for len(ranks) > 0 {
		if len(s) <= 12 {
			insertionSort(s)
			return
		}
		lt, gt := partition3(s, pivotOf(s, off))
		// s[:lt] < pivot, s[lt:gt] == pivot and so already placed, s[gt:] > pivot.
		a := 0
		for a < len(ranks) && ranks[a] < off+lt {
			a++
		}
		b := a
		for b < len(ranks) && ranks[b] < off+gt {
			b++
		}
		// Recurse into the shorter side and loop on the longer, which bounds
		// the stack at log2(n) frames whatever the pivots.
		if lt < len(s)-gt {
			selectRanks(s[:lt], off, ranks[:a])
			s, off, ranks = s[gt:], off+gt, ranks[b:]
		} else {
			selectRanks(s[gt:], off+gt, ranks[b:])
			s, ranks = s[:lt], ranks[:a]
		}
	}
}

// pivotOf returns the median of three elements of s picked by a fixed hash
// of the window's position and length: deterministic, and no input ordering
// (sorted, reversed, organ-pipe, periodic) can line up against it.
func pivotOf(s []time.Duration, off int) time.Duration {
	x := uint64(off)<<32 ^ uint64(len(s))
	var v [3]time.Duration
	for i := range v {
		// splitmix64 step
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
		z = (z ^ z>>27) * 0x94d049bb133111eb
		v[i] = s[(z^z>>31)%uint64(len(s))]
	}
	return max(min(v[0], v[1]), min(max(v[0], v[1]), v[2]))
}

// partition3 splits s around pivot into s[:lt] < pivot, s[lt:gt] == pivot
// and s[gt:] > pivot. Response times repeat heavily (every cached read costs
// the same), and the equal band is what makes such series one pass.
func partition3(s []time.Duration, pivot time.Duration) (lt, gt int) {
	gt = len(s)
	for i := 0; i < gt; {
		switch v := s[i]; {
		case v < pivot:
			s[i], s[lt] = s[lt], v
			lt++
			i++
		case v > pivot:
			gt--
			s[i], s[gt] = s[gt], v
		default:
			i++
		}
	}
	return lt, gt
}

func insertionSort(s []time.Duration) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
