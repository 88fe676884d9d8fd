package stats

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestPercentilesMatchesPercentile checks the batch call returns exactly what
// one call per percentile returns, across edge cases: a batch selects every
// rank it needs in one pass.
func TestPercentilesMatchesPercentile(t *testing.T) {
	series := [][]time.Duration{
		nil,
		{7},
		{4, 1, 3, 2},
		{10, 10, 10},
		{5, 9, 1, 7, 3, 8, 2, 6, 4, 0},
	}
	ps := []float64{-5, 0, 25, 50, 90, 99, 100, 500}
	for _, samples := range series {
		got := Percentiles(samples, ps...)
		if len(got) != len(ps) {
			t.Fatalf("Percentiles returned %d values for %d ps", len(got), len(ps))
		}
		for i, p := range ps {
			if want := Percentiles(samples, p)[0]; got[i] != want {
				t.Errorf("samples %v p=%v: batch %v, single %v", samples, p, got[i], want)
			}
		}
	}
	if Percentiles([]time.Duration{1, 2, 3}) != nil {
		t.Error("no requested percentiles should return nil")
	}
}

// TestPercentilesDoesNotMutateInput: the samples come back as they went in.
func TestPercentilesDoesNotMutateInput(t *testing.T) {
	samples := []time.Duration{3, 1, 2}
	Percentiles(samples, 50, 99)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatalf("input mutated: %v", samples)
	}
}

// TestPercentilesAllocs pins the allocation profile of the batch API: one
// scratch (bucket counts, gather pool, rank bookkeeping) plus the result
// slice, independent of how many percentiles are requested — so p50/p95/p99
// over a long replay is one selection.
func TestPercentilesAllocs(t *testing.T) {
	samples := make([]time.Duration, 4096)
	for i := range samples {
		samples[i] = time.Duration((int64(i)*2654435761)%100003) * time.Microsecond
	}
	allocs := testing.AllocsPerRun(100, func() {
		Percentiles(samples, 50, 90, 95, 99, 99.9)
	})
	if allocs > 2 {
		t.Fatalf("Percentiles allocates %.1f times per call, want <= 2 (scratch + result)", allocs)
	}
	many := make([]float64, 25)
	for i := range many {
		many[i] = float64(i * 4)
	}
	allocs = testing.AllocsPerRun(100, func() {
		Percentiles(samples, many...)
	})
	if allocs > 2 {
		t.Fatalf("Percentiles of %d ps allocates %.1f times per call, want <= 2", len(many), allocs)
	}
}

// TestPercentilesMatchSorted is the differential test for the histogram
// selection inside Percentiles. The oracle is percentilesSorted over a fully
// sorted copy. Every value must be equal — not close — and the input must
// come back untouched.
func TestPercentilesMatchSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	fill := func(value func(i, n int) time.Duration) func(int) []time.Duration {
		return func(n int) []time.Duration {
			s := make([]time.Duration, n)
			for i := range s {
				s[i] = value(i, n)
			}
			return s
		}
	}
	shapes := []struct {
		name string
		make func(n int) []time.Duration
	}{
		{"uniform", fill(func(int, int) time.Duration { return time.Duration(rng.Int63n(int64(20 * time.Millisecond))) })},
		{"duplicate-heavy", fill(func(int, int) time.Duration { return time.Duration(rng.Intn(4)) * 100 * time.Microsecond })},
		{"all-equal", fill(func(int, int) time.Duration { return 250 * time.Microsecond })},
		{"ascending", fill(func(i, _ int) time.Duration { return time.Duration(i) })},
		{"descending", fill(func(i, n int) time.Duration { return time.Duration(n - i) })},
		{"organ-pipe", fill(func(i, n int) time.Duration { return time.Duration(min(i, n-1-i)) })},
		{"negative", fill(func(int, int) time.Duration { return time.Duration(rng.Int63n(2001) - 1000) })},
		// A replay's shape: most reads cost the same, a few queue far longer.
		{"tied-with-tail", fill(func(int, int) time.Duration {
			if rng.Intn(10) == 0 {
				return time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
			}
			return 100 * time.Microsecond
		})},
		// Buckets are 2^62 wide until refinement narrows the one the ranks read.
		{"far-outliers", fill(func(i, _ int) time.Duration {
			switch i % 97 {
			case 0:
				return math.MaxInt64
			case 1:
				return math.MinInt64
			}
			return time.Duration(rng.Intn(50))
		})},
	}
	lengths := []int{0, 1, 2, 3, 11, 12, 13, 14, 100, 1000, 4999, 5000}
	for range 60 {
		lengths = append(lengths, 1+rng.Intn(5000))
	}
	for _, shape := range shapes {
		for _, n := range lengths {
			samples := shape.make(n)
			ps := []float64{0, 50, 95, 99, 100, -3, 140}
			for range 2 + rng.Intn(16) {
				ps = append(ps, rng.Float64()*100)
			}
			before := slices.Clone(samples)
			got := Percentiles(samples, ps...)
			if !slices.Equal(samples, before) {
				t.Fatalf("%s n=%d: input modified", shape.name, n)
			}
			slices.Sort(before)
			want := percentilesSorted(before, ps...)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d ps=%v:\n got %v\nwant %v", shape.name, n, ps, got, want)
			}
		}
	}
}

// FuzzPercentilesMatchSorted holds Percentiles to percentilesSorted over a
// sorted copy on arbitrary samples and percentiles, and the samples to what
// they were. An input is a percentile count (its first byte, mod 16), that
// many little-endian float64 percentiles, then the samples as little-endian
// int64s. A NaN percentile has no rank, so an input holding one is skipped.
func FuzzPercentilesMatchSorted(f *testing.F) {
	seed := func(ps []float64, samples ...int64) []byte {
		b := []byte{byte(len(ps))}
		for _, p := range ps {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(p))
		}
		for _, v := range samples {
			b = binary.LittleEndian.AppendUint64(b, uint64(v))
		}
		return b
	}
	pcts := []float64{50, 95, 99}
	f.Add(seed(pcts, 7))                                 // n = 1
	f.Add(seed(pcts, 5, 5, 5, 5, 5, 5, 5, 5, 5))         // all equal
	f.Add(seed([]float64{0, 25, 50, 75, 100}, 3, 1e9))   // two values
	f.Add(seed(pcts, -40, -7, -1_000_000, -3, -3, -900)) // negatives
	f.Add(seed([]float64{-10, 250, 33.3}, 4, 2, 9, 1))   // p outside [0, 100]
	// One outlier 2^62 away: every other sample shares the first bucket, which
	// refinement splits.
	outlier := make([]int64, 100)
	for i := range outlier {
		outlier[i] = int64(i % 23)
	}
	outlier[40] = 1 << 62
	f.Add(seed(pcts, outlier...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		np := int(data[0] % 16)
		data = data[1:]
		if len(data) < 8*np {
			return
		}
		ps := make([]float64, np)
		for i := range ps {
			ps[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
			if math.IsNaN(ps[i]) {
				return
			}
		}
		data = data[8*np:]
		samples := make([]time.Duration, len(data)/8)
		for i := range samples {
			samples[i] = time.Duration(binary.LittleEndian.Uint64(data[8*i:]))
		}
		before := slices.Clone(samples)
		got := Percentiles(samples, ps...)
		if !slices.Equal(samples, before) {
			t.Fatalf("input modified")
		}
		if np == 0 {
			if got != nil {
				t.Fatalf("no percentiles returned %v", got)
			}
			return
		}
		slices.Sort(before)
		if want := percentilesSorted(before, ps...); !slices.Equal(got, want) {
			t.Fatalf("ps=%v n=%d:\n got %v\nwant %v", ps, len(samples), got, want)
		}
	})
}

// percentilesSorted is the definition Percentiles must meet: each percentile
// read off samples already sorted ascending, interpolating linearly between
// the closest ranks.
func percentilesSorted(sorted []time.Duration, ps ...float64) []time.Duration {
	out := make([]time.Duration, len(ps))
	if len(sorted) == 0 {
		return out
	}
	for i, p := range ps {
		lo, hi, frac := rankOf(len(sorted), p)
		out[i] = interpolate(sorted[lo], sorted[hi], frac)
	}
	return out
}

// BenchmarkPercentiles times p50/p95/p99 of one replay segment's worth of
// distinct samples and of a whole replay's worth of mostly repeated ones.
func BenchmarkPercentiles(b *testing.B) {
	rng := rand.New(rand.NewSource(42))
	distinct := make([]time.Duration, 12_500)
	for i := range distinct {
		distinct[i] = time.Duration(rng.Int63n(int64(20 * time.Millisecond)))
	}
	repeated := make([]time.Duration, 1_000_000)
	for i := range repeated {
		repeated[i] = 100 * time.Microsecond
		if rng.Intn(10) == 0 {
			repeated[i] = time.Duration(rng.Int63n(int64(2 * time.Millisecond)))
		}
	}
	for _, samples := range [][]time.Duration{distinct, repeated} {
		b.Run(fmt.Sprintf("n=%d", len(samples)), func(b *testing.B) {
			for b.Loop() {
				Percentiles(samples, 50, 95, 99)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(samples)), "ns/sample")
		})
	}
}
