package main

import (
	"math"
	"testing"
)

func TestMedianAndPercentile(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		p    float64
		want float64
	}{
		{nil, 50, 0},
		{[]float64{7}, 50, 7},
		{[]float64{3, 1, 2}, 50, 2},
		{[]float64{4, 1, 3, 2}, 50, 2.5},
		{[]float64{1, 2, 3, 4, 5}, 100, 5},
		{[]float64{1, 2, 3, 4, 5}, 0, 1},
		{[]float64{10, 20}, 25, 12.5},
	} {
		if got := percentile(tc.xs, tc.p); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", tc.xs, tc.p, got, tc.want)
		}
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 {
		t.Error("median sorted its argument in place")
	}
}

// The expected values are what Python's statistics.quantiles(xs, n=4)
// prints, since that is the rule a metric's spread is judged by.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{5}, 5, 5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{1, 2, 3}, 1, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 3.75},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1 (IQR 5.5 over median 5.5)", got)
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n   int
		pct int
		ok  bool
	}{
		{0, 0, false},
		{10, 0, false},
		{19, 0, false}, // no tail below n = 20
		{20, 50, true},
		{30, 66, true},
		{40, 75, true},
		{600, 98, true},
		{100000, 99, true},
	} {
		pct, ok := tailPercentile(tc.n)
		if pct != tc.pct || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = %d, %v, want %d, %v", tc.n, pct, ok, tc.pct, tc.ok)
		}
		if ok {
			// At least ten samples lie beyond the percentile.
			if beyond := tc.n - tc.n*pct/100; beyond < minTailSamples {
				t.Errorf("n=%d p%d leaves only %d samples beyond it", tc.n, pct, beyond)
			}
		}
	}
	xs := make([]float64, 30)
	for i := range xs {
		xs[i] = float64(i)
	}
	if v, pct := tail(xs); pct != 66 || math.Abs(v-percentile(xs, 66)) > 1e-12 {
		t.Errorf("tail of 30 = %v at p%d", v, pct)
	}
	if v, pct := tail(xs[:12]); v != 0 || pct != 0 {
		t.Errorf("tail of 12 samples = %v at p%d, want none", v, pct)
	}
}

// TestHostIndex pins the host speed index: the geometric mean over the
// kernels of the median sample against the kernel's reference time, and 1
// when there is nothing to go by.
func TestHostIndex(t *testing.T) {
	if got := hostSamples(nil).index(); got != 1 {
		t.Errorf("index without samples = %v, want 1", got)
	}
	// Kernel k's median is factor[k] times its reference; the factors
	// multiply to 1. One wild sample per kernel must not move the median.
	factor := []float64{2, 0.5}
	s := make(hostSamples, len(hostKernels))
	for k, kern := range hostKernels {
		f := 1.0
		if k < len(factor) {
			f = factor[k]
		}
		m := f * kern.ref.Seconds()
		s[k] = []float64{m, 0.9 * m, 1.1 * m, 40 * m, m}
	}
	if got := s.index(); math.Abs(got-1) > 1e-9 {
		t.Errorf("index = %v, want 1", got)
	}
	for k := range s {
		for i := range s[k] {
			s[k][i] *= 1.25
		}
	}
	if got := s.index(); math.Abs(got-1.25) > 1e-9 {
		t.Errorf("index of a box a quarter slower = %v, want 1.25", got)
	}
}

// TestHostKernelsRepeat checks that a kernel is the same work every time:
// the same steps over the same positions on equal tables.
func TestHostKernelsRepeat(t *testing.T) {
	for _, kern := range hostKernels {
		if kern.words&(kern.words-1) != 0 || kern.words > hostBufWords {
			t.Errorf("%s: a table of %d words must be a power of two within the buffer", kern.name, kern.words)
		}
	}
	small := hostKernel{name: "test", words: 1 << 10, ops: 1 << 12}
	a := &hostBuf{table: make([]uint64, small.words)}
	b := &hostBuf{table: make([]uint64, small.words)}
	a.run(small)
	b.run(small)
	for i := range a.table {
		if a.table[i] != b.table[i] {
			t.Fatalf("two runs of one kernel on equal tables differ at word %d", i)
		}
	}
}
