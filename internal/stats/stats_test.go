package stats

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	diff := math.Abs(a - b)
	if diff <= tol {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= tol*scale
}

// directStats computes mean/variance/min/max the naive way for comparison.
func directStats(xs []float64) (mean, variance, lo, hi float64) {
	if len(xs) == 0 {
		return 0, 0, 0, 0
	}
	lo, hi = xs[0], xs[0]
	for _, x := range xs {
		mean += x
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	mean /= float64(len(xs))
	if len(xs) < 2 {
		return mean, 0, lo, hi
	}
	for _, x := range xs {
		variance += (x - mean) * (x - mean)
	}
	variance /= float64(len(xs) - 1)
	return mean, variance, lo, hi
}

func TestRunningMatchesDirectComputation(t *testing.T) {
	// Property: Welford accumulation agrees with the two-pass formulas
	// for any input.
	f := func(xs []float64) bool {
		clean := make([]float64, 0, len(xs))
		for _, x := range xs {
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e9 {
				continue
			}
			clean = append(clean, x)
		}
		if len(clean) == 0 {
			return true
		}
		var r Running
		for _, x := range clean {
			r.Add(x)
		}
		mean, variance, lo, hi := directStats(clean)
		return almostEqual(r.Mean(), mean, 1e-9) &&
			almostEqual(r.Variance(), variance, 1e-6) &&
			r.Min() == lo && r.Max() == hi &&
			r.N() == int64(len(clean))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRunningEmpty(t *testing.T) {
	var r Running
	s := r.Summary()
	if s.N != 0 || s.Mean != 0 || s.Min != 0 || s.Max != 0 || s.StdDev != 0 {
		t.Fatalf("empty summary = %+v", s)
	}
}

func TestSummarizeKnownValues(t *testing.T) {
	s := Summarize([]time.Duration{time.Millisecond, 3 * time.Millisecond})
	if !almostEqual(s.Mean, 0.002, 1e-12) {
		t.Errorf("mean = %v, want 0.002", s.Mean)
	}
	if !almostEqual(s.Min, 0.001, 1e-12) || !almostEqual(s.Max, 0.003, 1e-12) {
		t.Errorf("min/max = %v/%v", s.Min, s.Max)
	}
	// Sample stddev of {1,3} ms is sqrt(2) ms.
	if !almostEqual(s.StdDev, math.Sqrt2*1e-3, 1e-9) {
		t.Errorf("stddev = %v", s.StdDev)
	}
}

func TestPercentile(t *testing.T) {
	samples := []time.Duration{4, 1, 3, 2} // unsorted on purpose
	cases := []struct {
		p    float64
		want time.Duration
	}{
		{0, 1}, {100, 4}, {50, 2}, {25, 1}, {75, 3},
		{-5, 1}, {500, 4}, // out-of-range p clamps
	}
	for _, c := range cases {
		if got := Percentiles(samples, c.p)[0]; got != c.want {
			t.Errorf("Percentiles(%v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := Percentiles(nil, 50)[0]; got != 0 {
		t.Errorf("Percentiles(nil) = %v", got)
	}
	if got := Percentiles([]time.Duration{7}, 50)[0]; got != 7 {
		t.Errorf("median of one sample = %v", got)
	}
}

func TestPercentileDoesNotMutateInput(t *testing.T) {
	samples := []time.Duration{3, 1, 2}
	Percentiles(samples, 50)
	if samples[0] != 3 || samples[1] != 1 || samples[2] != 2 {
		t.Fatalf("input mutated: %v", samples)
	}
}

// synthetic two-phase trace: `startup` cheap IOs then oscillation with the
// given period (one expensive IO per period).
func synthTrace(startup, period, total int, cheap, expensive time.Duration) []time.Duration {
	out := make([]time.Duration, total)
	for i := range out {
		out[i] = cheap
		if i >= startup && (i-startup)%period == period-1 {
			out[i] = expensive
		}
	}
	return out
}

func TestAnalyzePhasesOscillating(t *testing.T) {
	trace := synthTrace(128, 16, 2048, 400*time.Microsecond, 27*time.Millisecond)
	an := AnalyzePhases(trace)
	if !an.Oscillates {
		t.Fatal("oscillation not detected")
	}
	if an.StartUp < 100 || an.StartUp > 160 {
		t.Errorf("StartUp = %d, want ~128", an.StartUp)
	}
	if an.Period < 12 || an.Period > 20 {
		t.Errorf("Period = %d, want ~16", an.Period)
	}
	if !almostEqual(an.CheapLevel, 0.0004, 0.05) {
		t.Errorf("CheapLevel = %v", an.CheapLevel)
	}
	if !almostEqual(an.ExpensiveLevel, 0.027, 0.05) {
		t.Errorf("ExpensiveLevel = %v", an.ExpensiveLevel)
	}
}

func TestAnalyzePhasesUniform(t *testing.T) {
	trace := make([]time.Duration, 512)
	for i := range trace {
		trace[i] = time.Millisecond + time.Duration(i%7)*time.Microsecond
	}
	an := AnalyzePhases(trace)
	if an.Oscillates {
		t.Fatal("uniform trace reported as oscillating")
	}
	if an.StartUp != 0 {
		t.Errorf("StartUp = %d on uniform trace", an.StartUp)
	}
}

func TestAnalyzePhasesNoStartup(t *testing.T) {
	trace := synthTrace(0, 128, 2048, 2*time.Millisecond, 200*time.Millisecond)
	an := AnalyzePhases(trace)
	if !an.Oscillates {
		t.Fatal("oscillation not detected")
	}
	if an.StartUp != 0 {
		t.Errorf("StartUp = %d, want 0", an.StartUp)
	}
	if an.Period < 100 || an.Period > 160 {
		t.Errorf("Period = %d, want ~128", an.Period)
	}
}

func TestAnalyzePhasesEmpty(t *testing.T) {
	an := AnalyzePhases(nil)
	if an.StartUp != 0 || an.Oscillates {
		t.Fatalf("empty analysis = %+v", an)
	}
}

func TestLingerLength(t *testing.T) {
	baseline := 0.001
	trace := make([]time.Duration, 100)
	for i := range trace {
		if i < 30 {
			trace[i] = 3 * time.Millisecond // inflated
		} else {
			trace[i] = time.Millisecond
		}
	}
	got := LingerLength(trace, baseline, 1.25, 8)
	if got != 30 {
		t.Errorf("LingerLength = %d, want 30", got)
	}
	// Never settles.
	all := make([]time.Duration, 50)
	for i := range all {
		all[i] = 10 * time.Millisecond
	}
	if got := LingerLength(all, baseline, 1.25, 8); got != 50 {
		t.Errorf("unsettled LingerLength = %d, want len", got)
	}
	// Settles immediately.
	if got := LingerLength(trace[30:], baseline, 1.25, 4); got != 0 {
		t.Errorf("settled LingerLength = %d, want 0", got)
	}
}

func TestAnalyzePhasesRandomizedNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		n := rng.Intn(400)
		trace := make([]time.Duration, n)
		for i := range trace {
			trace[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
		}
		an := AnalyzePhases(trace)
		if an.StartUp < 0 || an.StartUp > n {
			t.Fatalf("StartUp %d out of range for n=%d", an.StartUp, n)
		}
	}
}

func TestRunningEdgeCases(t *testing.T) {
	// The documented zero-value contract: empty accumulators return 0
	// everywhere, single samples have zero spread, and StdDev is never NaN.
	cases := []struct {
		name    string
		samples []float64
		min     float64
		max     float64
		mean    float64
		vari    float64
	}{
		{name: "empty", samples: nil},
		{name: "single", samples: []float64{3.5}, min: 3.5, max: 3.5, mean: 3.5},
		{name: "single negative", samples: []float64{-2}, min: -2, max: -2, mean: -2},
		{name: "single zero", samples: []float64{0}},
		{name: "pair", samples: []float64{1, 3}, min: 1, max: 3, mean: 2, vari: 2},
		{name: "constant", samples: []float64{5, 5, 5}, min: 5, max: 5, mean: 5},
		{name: "negative range", samples: []float64{-4, -1}, min: -4, max: -1, mean: -2.5, vari: 4.5},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var r Running
			for _, x := range tc.samples {
				r.Add(x)
			}
			if got := r.N(); got != int64(len(tc.samples)) {
				t.Fatalf("N = %d, want %d", got, len(tc.samples))
			}
			if r.Min() != tc.min || r.Max() != tc.max {
				t.Fatalf("min/max = %v/%v, want %v/%v", r.Min(), r.Max(), tc.min, tc.max)
			}
			if !almostEqual(r.Mean(), tc.mean, 1e-12) {
				t.Fatalf("mean = %v, want %v", r.Mean(), tc.mean)
			}
			if !almostEqual(r.Variance(), tc.vari, 1e-12) {
				t.Fatalf("variance = %v, want %v", r.Variance(), tc.vari)
			}
			if sd := r.StdDev(); math.IsNaN(sd) || sd < 0 {
				t.Fatalf("stddev = %v", sd)
			}
		})
	}
}

func TestRunningVarianceNeverNegativeOrNaN(t *testing.T) {
	// Near-constant large values provoke floating-point cancellation in
	// Welford's m2; the clamp keeps Variance >= 0 and StdDev finite.
	var r Running
	for i := 0; i < 1000; i++ {
		r.Add(1e15 + float64(i%2)*1e-3)
	}
	if v := r.Variance(); v < 0 || math.IsNaN(v) {
		t.Fatalf("variance = %v", v)
	}
	if sd := r.StdDev(); math.IsNaN(sd) || sd < 0 {
		t.Fatalf("stddev = %v", sd)
	}
}
