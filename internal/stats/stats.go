// Package stats provides the statistical summaries uFLIP computes over
// per-IO response times (Section 3.2, design principle 1: min, max, mean,
// standard deviation per run), plus the series analysis helpers the
// benchmarking methodology needs (start-up phase and oscillation-period
// estimation, Section 4.2).
package stats

import (
	"fmt"
	"math"
	"math/bits"
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
// ranks: the values read off a sorted copy at those ranks, for every
// input. It returns nil for no percentiles and all-zero values for an empty
// sample slice. The samples are only read — never copied, never reordered —
// so a replay selects over the series it still needs in stream order.
//
// Selection is by histogram. One pass finds the range; one counts the
// samples into equal-width buckets, one per 8 to 16 samples (at least 16, at
// most 2^16); the counts name the bucket that holds each rank the percentiles
// read (the floor and ceil rank of each); one more pass gathers the samples
// of those buckets, which are sorted and the ranks read off. A bucket too
// large to gather is histogrammed again over its own range. Each level
// divides the bucket width by the bucket count, so by the 16th level every
// bucket holds a single value — for all-equal samples, negative ones and a
// lone outlier 2^62 away too.
func Percentiles(samples []time.Duration, ps ...float64) []time.Duration {
	var s Selector
	return s.Percentiles(samples, ps...)
}

// Selector keeps the histogram's scratch and the values Percentiles returns
// for a caller that selects again and again. The zero value is ready to use.
type Selector struct {
	scratch []uint64
	out     []time.Duration
}

// Percentiles is Percentiles in s's memory, valid until s's next call.
func (s *Selector) Percentiles(samples []time.Duration, ps ...float64) []time.Duration {
	if len(ps) == 0 {
		return nil
	}
	s.out = zeroed(s.out, len(ps))
	out := s.out
	if len(samples) == 0 {
		return out
	}
	lo, hi := samples[0], samples[0]
	for _, v := range samples[1:] {
		lo, hi = min(lo, v), max(hi, v)
	}
	// One scratch allocation: the bucket counts, a gather pool a quarter
	// their length, and per rank read its number, its value and a level's
	// working rank and bucket.
	k := min(max(bits.Len(uint(len(samples)))-4, 4), 16)
	nb := 1<<k + 1<<(k-2)
	nr := 2 * len(ps)
	s.scratch = zeroed(s.scratch, nb+4*nr)
	scratch := s.scratch
	h := histogram{samples: samples, bits: k, counts: scratch[:1<<k], pool: scratch[1<<k : nb]}
	keys := scratch[nb : nb+nr]
	for i, p := range ps {
		a, b, _ := rankOf(len(samples), p)
		keys[2*i], keys[2*i+1] = uint64(a), uint64(b)
	}
	slices.Sort(keys)
	keys = slices.Compact(keys)
	rest := scratch[nb+nr:]
	ranks, vals, buckets := rest[:len(keys)], rest[nr:nr+len(keys)], rest[2*nr:2*nr+len(keys)]
	copy(ranks, keys)
	h.resolve(lo, uint64(hi-lo), ranks, vals, buckets)
	valueAt := func(rank int) time.Duration {
		i, _ := slices.BinarySearch(keys, uint64(rank))
		return time.Duration(vals[i])
	}
	for i, p := range ps {
		a, b, frac := rankOf(len(samples), p)
		out[i] = interpolate(valueAt(a), valueAt(b), frac)
	}
	return out
}

// histogram is one Percentiles call: the samples, only ever read, and the
// scratch every level of refinement reuses.
type histogram struct {
	samples []time.Duration
	bits    int      // log2 of the bucket count
	counts  []uint64 // a level's bucket counts, then its gather marks
	pool    []uint64 // gathered samples, as offsets from their level's base
}

const (
	// gathered marks a bucket whose samples the gather pass collects; the
	// bits below it index the pool slot of the bucket's next sample.
	gathered = 1 << 63
	// resolved stands in for the bucket of a rank whose value is known.
	resolved = ^uint64(0)
)

// resolve sets vals[i] to the sample of rank ranks[i] among the samples in
// [base, base+span]; the ranks are ascending and distinct. It overwrites
// ranks, and buckets is scratch of the same length.
func (h *histogram) resolve(base time.Duration, span uint64, ranks, vals, buckets []uint64) {
	// A sample below base wraps to an offset above span, since no range ends
	// more than 2^64-1 past the smallest sample.
	shift := max(bits.Len64(span)-h.bits, 0)
	counts := h.counts[:span>>shift+1]
	clear(counts)
	for _, v := range h.samples {
		if d := uint64(v - base); d <= span {
			counts[d>>shift]++
		}
	}
	// Each rank's bucket, and its rank among that bucket's samples.
	b, below := uint64(0), uint64(0)
	for i, r := range ranks {
		for below+counts[b] <= r {
			below += counts[b]
			b++
		}
		buckets[i], ranks[i] = b, r-below
	}
	if shift == 0 { // every bucket holds one value
		for i, b := range buckets {
			vals[i] = uint64(base + time.Duration(b))
		}
		return
	}
	// Mark as many of the named buckets as the pool holds; their ranks
	// become pool slots.
	used := uint64(0)
	for i, j := 0, 0; i < len(ranks); i = j {
		b := buckets[i]
		for j = i + 1; j < len(ranks) && buckets[j] == b; j++ {
		}
		if n := counts[b]; used+n <= uint64(len(h.pool)) {
			for x := i; x < j; x++ {
				ranks[x] += used
			}
			counts[b] = gathered | used
			used += n
		}
	}
	if used > 0 {
		for b, c := range counts {
			if c&gathered == 0 {
				counts[b] = 0
			}
		}
		for _, v := range h.samples {
			if d := uint64(v - base); d <= span {
				if c := counts[d>>shift]; c != 0 {
					h.pool[c&^gathered] = d
					counts[d>>shift] = c + 1
				}
			}
		}
		// The pool holds the marked buckets in bucket order, so one sort
		// orders each of them.
		slices.Sort(h.pool[:used])
		for i, b := range buckets {
			if counts[b] != 0 {
				vals[i] = uint64(base + time.Duration(h.pool[ranks[i]]))
				buckets[i] = resolved
			}
		}
	}
	// The rest are refined over their own bucket's range. The last bucket's
	// may run past base+span, where no sample lies.
	for i, j := 0, 0; i < len(ranks); i = j {
		b := buckets[i]
		for j = i + 1; j < len(ranks) && buckets[j] == b; j++ {
		}
		if b != resolved {
			h.resolve(base+time.Duration(b<<shift), uint64(1)<<shift-1, ranks[i:j], vals[i:j], buckets[i:j])
		}
	}
}

// zeroed returns n zero elements, in buf's memory when that holds them (an
// append of a make would allocate twice in a race-detector build).
func zeroed[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// rankOf returns the closest ranks around the p-th percentile of n > 0
// samples (p clamped to [0, 100]) and how far between them it falls.
func rankOf(n int, p float64) (lo, hi int, frac float64) {
	p = min(max(p, 0), 100)
	rank := float64(p / 100 * float64(n-1)) // rounded here, not fused into rank - lo below
	lo, hi = int(math.Floor(rank)), int(math.Ceil(rank))
	return lo, hi, rank - float64(lo)
}

// interpolate returns the value frac of the way from the sample at the
// floor rank, a, to the one at the ceil rank, b.
func interpolate(a, b time.Duration, frac float64) time.Duration {
	if frac == 0 {
		return a
	}
	return a + time.Duration(frac*float64(b-a))
}
