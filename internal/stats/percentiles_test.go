package stats

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// TestPercentilesMatchesPercentile checks the single-sort batch API returns
// exactly what repeated Percentile calls return, across edge cases.
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
			if want := Percentile(samples, p); got[i] != want {
				t.Errorf("samples %v p=%v: batch %v, single %v", samples, p, got[i], want)
			}
		}
	}
	if Percentiles([]time.Duration{1, 2, 3}) != nil {
		t.Error("no requested percentiles should return nil")
	}
}

// TestPercentilesDoesNotMutateInput mirrors the Percentile guarantee.
func TestPercentilesDoesNotMutateInput(t *testing.T) {
	samples := []time.Duration{3, 1, 2}
	Percentiles(samples, 50, 99)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatalf("input mutated: %v", samples)
	}
}

// TestPercentilesSorted checks the no-copy variant against the copying one.
func TestPercentilesSorted(t *testing.T) {
	sorted := []time.Duration{1, 2, 3, 4, 5, 6, 7, 8}
	a := PercentilesSorted(sorted, 50, 95)
	b := Percentiles(sorted, 50, 95)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("sorted variant diverges: %v vs %v", a, b)
		}
	}
	z := PercentilesSorted(nil, 50)
	if len(z) != 1 || z[0] != 0 {
		t.Fatalf("empty sorted input: %v", z)
	}
}

// TestPercentilesAllocs pins the allocation profile of the batch API: one
// scratch copy of the samples plus the result slice, independent of how many
// percentiles are requested (the rank scratch is a stack array, refilled a
// batch at a time) — so p50/p95/p99 over a long replay is one selection.
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
	many := make([]float64, 3*rankBatch+1)
	for i := range many {
		many[i] = float64(i * 4)
	}
	allocs = testing.AllocsPerRun(100, func() {
		Percentiles(samples, many...)
	})
	if allocs > 2 {
		t.Fatalf("Percentiles of %d ps allocates %.1f times per call, want <= 2", len(many), allocs)
	}
	sorted := append([]time.Duration(nil), samples...)
	slices.Sort(sorted)
	allocs = testing.AllocsPerRun(100, func() {
		PercentilesSorted(sorted, 50, 90, 95, 99, 99.9)
	})
	if allocs > 1 {
		t.Fatalf("PercentilesSorted allocates %.1f times per call, want <= 1 (result)", allocs)
	}
	allocs = testing.AllocsPerRun(100, func() {
		PercentilesInPlace(sorted, many...)
	})
	if allocs > 1 {
		t.Fatalf("PercentilesInPlace allocates %.1f times per call, want <= 1 (result)", allocs)
	}
}

// TestPercentilesMatchSorted is the differential test for the selection
// inside Percentiles. The oracle is what it replaced: PercentilesSorted over
// a fully sorted copy. Every value must be equal — not close — and the input
// must come back untouched.
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
	}
	lengths := []int{1, 2, 3, 11, 12, 13, 14, 100, 1000, 4999, 5000}
	for range 60 {
		lengths = append(lengths, 1+rng.Intn(5000))
	}
	for _, shape := range shapes {
		for _, n := range lengths {
			samples := shape.make(n)
			// More percentiles than one selection batch holds, so the
			// batches after the first meet an already partitioned copy.
			ps := []float64{0, 50, 95, 99, 100, -3, 140}
			for range 2 + rng.Intn(2*rankBatch) {
				ps = append(ps, rng.Float64()*100)
			}
			before := slices.Clone(samples)
			got := Percentiles(samples, ps...)
			if !slices.Equal(samples, before) {
				t.Fatalf("%s n=%d: input modified", shape.name, n)
			}
			slices.Sort(before)
			want := PercentilesSorted(before, ps...)
			if !slices.Equal(got, want) {
				t.Fatalf("%s n=%d ps=%v:\n got %v\nwant %v", shape.name, n, ps, got, want)
			}
			// In place: the same values, and the samples only rearranged.
			if got := PercentilesInPlace(samples, ps...); !slices.Equal(got, want) {
				t.Fatalf("%s n=%d ps=%v in place:\n got %v\nwant %v", shape.name, n, ps, got, want)
			}
			if slices.Sort(samples); !slices.Equal(samples, before) {
				t.Fatalf("%s n=%d: in-place selection lost or invented samples", shape.name, n)
			}
		}
	}
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
