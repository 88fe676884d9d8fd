package report

import (
	"bytes"
	"math"
	"math/rand/v2"
	"strconv"
	"testing"
)

// trimFloatStrconv is trimFloat as it was written first, kept as the oracle:
// strconv's 'f' format at three decimals, trailing zeros and a bare point
// dropped.
func trimFloatStrconv(v float64) string {
	var buf [32]byte
	s := strconv.AppendFloat(buf[:0], v, 'f', 3, 64)
	return string(bytes.TrimRight(bytes.TrimRight(s, "0"), "."))
}

// TestTrimFloatMatchesStrconv: trimFloat prints the oracle's bytes at each
// of its edges — zero and values that round to it, the 0.001 cut, the
// powers of ten and the floats either side of them, values that gain a digit
// at three decimals, exact ties, 1e15 and the non-finite values — and for
// response times in milliseconds, the cells a report is made of.
func TestTrimFloatMatchesStrconv(t *testing.T) {
	vals := []float64{0, 5e-4, 4.9999e-4, 1e-3, 9.995e-4, 0.0625, 0.0375, 2.5e-3, 0.9995, 0.9996, 9.9995, 999.9996,
		99999.99951, 123456789012.3456, 1e15, 1e16, 1.5e300, 5e-324, math.MaxFloat64,
		math.Inf(1), math.Inf(-1), math.NaN()}
	for p := -4; p <= 16; p++ {
		ten := math.Pow(10, float64(p))
		vals = append(vals, ten, math.Nextafter(ten, 0), math.Nextafter(ten, math.Inf(1)),
			ten/2, math.Nextafter(ten/2, 0), math.Nextafter(ten/2, math.Inf(1)))
	}
	for k := 0; k < 4096; k++ {
		vals = append(vals, float64(k)/1024) // exact ties at the fourth decimal
	}
	rng := rand.New(rand.NewPCG(3, 3))
	for i := 0; i < 100_000; i++ {
		vals = append(vals, rng.ExpFloat64()*math.Pow(10, float64(rng.IntN(9)-3)))
	}
	for _, v := range vals {
		for _, v := range []float64{v, -v} {
			if got, want := trimFloat(v), trimFloatStrconv(v); got != want {
				t.Fatalf("trimFloat(%v) = %q, strconv %q", v, got, want)
			}
		}
	}
}

// FuzzTrimFloatMatchesStrconv: trimFloat prints the oracle's bytes for every
// float64 bit pattern.
func FuzzTrimFloatMatchesStrconv(f *testing.F) {
	for _, v := range []float64{0, 1.5, -0.0005, 999.9996, 0.0625, 1e15, math.NaN()} {
		f.Add(math.Float64bits(v))
	}
	f.Fuzz(func(t *testing.T, bits uint64) {
		v := math.Float64frombits(bits)
		if got, want := trimFloat(v), trimFloatStrconv(v); got != want {
			t.Fatalf("trimFloat(%v) = %q, strconv %q", v, got, want)
		}
	})
}

// BenchmarkTrimFloat prints response times in milliseconds, a report's
// cells, with trimFloat and with the oracle.
func BenchmarkTrimFloat(b *testing.B) {
	rng := rand.New(rand.NewPCG(5, 5))
	vals := make([]float64, 1024)
	for i := range vals {
		vals[i] = rng.ExpFloat64() * 2
	}
	for _, f := range []struct {
		name string
		fn   func(float64) string
	}{{"trimFloat", trimFloat}, {"strconv", trimFloatStrconv}} {
		b.Run(f.name, func(b *testing.B) {
			i := 0
			for b.Loop() {
				f.fn(vals[i%len(vals)])
				i++
			}
		})
	}
}
