package core

import (
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"uflip/internal/device"
)

func validPattern() Pattern {
	return Pattern{
		Name: "t", Mode: device.Write, IOSize: 32 * 1024, LBA: Sequential,
		TargetSize: 1 << 20, IOCount: 32, Seed: 1,
	}
}

func TestPatternValidate(t *testing.T) {
	p := validPattern()
	if err := p.Validate(); err != nil {
		t.Fatalf("valid pattern rejected: %v", err)
	}
	bad := []func(*Pattern){
		func(p *Pattern) { p.IOSize = 0 },
		func(p *Pattern) { p.IOSize = 1000 }, // not sector aligned
		func(p *Pattern) { p.TargetSize = 1024 },
		func(p *Pattern) { p.TargetOffset = -1 },
		func(p *Pattern) { p.IOShift = -1 },
		func(p *Pattern) { p.IOShift = p.IOSize + 512 },
		func(p *Pattern) { p.IOCount = 0 },
		func(p *Pattern) { p.IOIgnore = p.IOCount },
		func(p *Pattern) { p.Pause = -time.Second },
		func(p *Pattern) { p.LBA = Partitioned; p.Partitions = 0 },
		func(p *Pattern) { p.LBA = Partitioned; p.Partitions = 1024 }, // partition < IOSize
	}
	for i, mutate := range bad {
		p := validPattern()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("case %d: invalid pattern accepted: %+v", i, p)
		}
	}
}

// TestSequentialLBAFormula checks Table 1's baseline formula:
// Seq: TargetOffset + IOShift + i*IOSize, wrapping modulo TargetSize.
func TestSequentialLBAFormula(t *testing.T) {
	p := validPattern()
	p.TargetOffset = 1 << 20
	p.IOShift = 512
	rng := rand.New(rand.NewSource(p.Seed))
	for i := 0; i < 40; i++ {
		want := p.TargetOffset + p.IOShift + (int64(i)*p.IOSize)%p.TargetSize
		if got := p.LBAAt(i, rng); got != want {
			t.Fatalf("LBAAt(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestOrderedLBAFormula checks the Order micro-benchmark patterns: reverse
// (Incr=-1), in-place (Incr=0) and strided.
func TestOrderedLBAFormula(t *testing.T) {
	p := validPattern()
	p.LBA = Ordered

	p.Incr = 0 // in-place: LBA constant
	rng := rand.New(rand.NewSource(1))
	first := p.LBAAt(0, rng)
	for i := 1; i < 10; i++ {
		if p.LBAAt(i, rng) != first {
			t.Fatal("in-place pattern moved")
		}
	}

	p.Incr = -1 // reverse: decreasing LBAs, wrapped positive
	prev := p.LBAAt(1, rng)
	for i := 2; i < 10; i++ {
		cur := p.LBAAt(i, rng)
		if cur != prev-p.IOSize {
			t.Fatalf("reverse step %d: %d -> %d", i, prev, cur)
		}
		prev = cur
	}

	p.Incr = 4 // strided
	if got := p.LBAAt(1, rng) - p.LBAAt(0, rng); got != 4*p.IOSize {
		t.Fatalf("stride = %d, want %d", got, 4*p.IOSize)
	}
}

// TestPartitionedLBAFormula checks Table 1's partitioned formula:
// LBA = Pi*PS + Oi, PS = TargetSize/Partitions, Pi = i mod P,
// Oi = floor(i/P)*IOSize mod PS.
func TestPartitionedLBAFormula(t *testing.T) {
	p := validPattern()
	p.LBA = Partitioned
	p.Partitions = 4
	p.TargetSize = 4 << 20
	ps := p.TargetSize / 4
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 64; i++ {
		pi := int64(i % 4)
		oi := (int64(i/4) * p.IOSize) % ps
		want := pi*ps + oi
		if got := p.LBAAt(i, rng); got != want {
			t.Fatalf("partitioned LBAAt(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestLBAWithinTarget is the location-function safety property: every kind
// stays within [TargetOffset, TargetOffset+IOShift+TargetSize).
func TestLBAWithinTarget(t *testing.T) {
	f := func(kind uint8, count uint8, shiftSectors uint8, seed int64) bool {
		p := validPattern()
		p.LBA = LBAKind(int(kind) % 4)
		p.IOShift = int64(shiftSectors%64) * 512
		p.Seed = seed
		p.Partitions = 4
		p.Incr = -1
		rng := rand.New(rand.NewSource(p.Seed))
		n := int(count)%128 + 1
		for i := 0; i < n; i++ {
			lba := p.LBAAt(i, rng)
			if lba < p.TargetOffset || lba+p.IOSize > p.TargetOffset+p.IOShift+p.TargetSize {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNoIOEndsPastSpan: when the target, or a partition of it, is not a
// whole number of IOs, every location function still wraps before an IO
// would end past Span. Partitioning's SW at 4 partitions of 172,032 bytes
// (5.25 IOs) once wrote its 23rd IO past the device's end.
func TestNoIOEndsPastSpan(t *testing.T) {
	for _, target := range []int64{688_128, 1<<20 + 512, 3*32<<10 - 4096, 100 << 10} {
		for _, kind := range []LBAKind{Sequential, Random, Ordered, Partitioned} {
			for _, incr := range []int64{-1, 0, 1, 3} {
				p := validPattern()
				p.LBA, p.TargetSize, p.Incr, p.Partitions = kind, target, incr, 4
				p.TargetOffset, p.IOShift, p.IOCount = 1<<20, 512, 200
				if kind == Partitioned && target/4 < p.IOSize {
					p.Partitions = 2
				}
				if err := p.Validate(); err != nil {
					t.Fatalf("%v target %d: %v", kind, target, err)
				}
				lo, hi := p.Span()
				src := p.Source()
				for i := 0; ; i++ {
					io, ok := src.Next()
					if !ok {
						break
					}
					if io.Off < lo || io.Off+io.Size > hi {
						t.Fatalf("%v incr %d target %d: IO %d at [%d, %d) leaves Span [%d, %d)",
							kind, incr, target, i, io.Off, io.Off+io.Size, lo, hi)
					}
				}
			}
		}
	}
}

func TestRandomLBAReproducible(t *testing.T) {
	p := validPattern()
	p.LBA = Random
	gen := func() []int64 {
		src := p.Source()
		var out []int64
		for {
			io, ok := src.Next()
			if !ok {
				break
			}
			out = append(out, io.Off)
		}
		return out
	}
	a, b := gen(), gen()
	if len(a) != p.IOCount {
		t.Fatalf("source yielded %d IOs, want %d", len(a), p.IOCount)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("same seed produced different sequences")
		}
	}
}

func TestMixSourceInterleaving(t *testing.T) {
	a := validPattern()
	a.Mode = device.Read
	b := validPattern()
	b.TargetOffset = 8 << 20
	mix := NewMixSource(a.Source(), b.Source(), 3)
	var modes []device.Mode
	for i := 0; i < 8; i++ {
		io, ok := mix.Next()
		if !ok {
			t.Fatal("mix exhausted early")
		}
		modes = append(modes, io.Mode)
	}
	// Ratio 3: three reads then one write, repeating.
	want := []device.Mode{device.Read, device.Read, device.Read, device.Write,
		device.Read, device.Read, device.Read, device.Write}
	for i := range want {
		if modes[i] != want[i] {
			t.Fatalf("mix order %v, want %v", modes, want)
		}
	}
}

func TestBaselineProperties(t *testing.T) {
	d := StandardDefaults()
	for _, b := range Baselines {
		p := b.Pattern(d)
		if err := p.Validate(); err != nil {
			t.Fatalf("%s baseline invalid: %v", b, err)
		}
		if p.Mode != b.Mode() || p.LBA != b.LBA() {
			t.Fatalf("%s baseline attributes wrong", b)
		}
	}
	if _, err := ParseBaseline("XX"); err == nil {
		t.Fatal("bad baseline parsed")
	}
	for _, s := range []string{"SR", "RR", "SW", "RW"} {
		b, err := ParseBaseline(s)
		if err != nil || b.String() != s {
			t.Fatalf("ParseBaseline(%s) = %v, %v", s, b, err)
		}
	}
}

func TestPatternSpan(t *testing.T) {
	p := validPattern()
	p.TargetOffset = 1024
	p.IOShift = 512
	lo, hi := p.Span()
	if lo != 1024 || hi != 1024+512+p.TargetSize {
		t.Fatalf("Span = [%d, %d)", lo, hi)
	}
}
