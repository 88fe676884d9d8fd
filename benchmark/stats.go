package main

import (
	"math"
	"sort"
)

// median returns the middle of xs (mean of the two middle values for an
// even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	return percentile(xs, 50)
}

// percentile returns the p-th percentile of xs by linear interpolation
// between closest ranks; 0 for an empty slice. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) (the default exclusive method) gives them,
// because that is the rule the spread of a metric is judged by. Fewer than
// two values have no spread: both quartiles equal the single value.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	switch n {
	case 0:
		return 0, 0
	case 1:
		return xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}

// minTailSamples is how many samples must lie beyond a percentile before
// it is reported: fewer and the "tail" is one or two outliers.
const minTailSamples = 10

// tailPercentile returns the highest whole percentile that still has
// minTailSamples samples beyond it — p66 at n = 30, p75 at n = 40, p98 at
// n = 600 — and ok = false below n = 20, where that percentile would sit
// under the median.
func tailPercentile(n int) (pct int, ok bool) {
	if n < 2*minTailSamples {
		return 0, false
	}
	return 100 * (n - minTailSamples) / n, true
}

// tail returns the tail percentile of xs by the tailPercentile rule, and
// the percentile used (0 when xs is too short to have one).
func tail(xs []float64) (value float64, pct int) {
	pct, ok := tailPercentile(len(xs))
	if !ok {
		return 0, 0
	}
	return percentile(xs, float64(pct)), pct
}
