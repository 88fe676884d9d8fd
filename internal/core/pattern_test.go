package core

import (
	"testing"
	"testing/quick"
	"time"

	"uflip/internal/device"
)

// sourceOf returns a fresh source over p.
func sourceOf(p *Pattern) *patternSource {
	s := new(patternSource)
	s.reset(p)
	return s
}

// addrs returns the addresses of the IOs a fresh source over p yields.
func addrs(p *Pattern) []int64 {
	s := sourceOf(p)
	var out []int64
	for io, ok := s.Next(); ok; io, ok = s.Next() {
		out = append(out, io.Off)
	}
	return out
}

// closedLBA is the location function of Section 3.1 in closed form, the
// oracle for the source's cursor: the address of p's i-th IO. Random is left
// out, as its draws depend on the ones before.
func closedLBA(p *Pattern, i int) int64 {
	wrap := max(p.TargetSize/p.IOSize, 1) * p.IOSize
	var rel int64
	switch p.LBA {
	case Sequential:
		rel = mod64(int64(i)*p.IOSize, wrap)
	case Ordered:
		rel = mod64(p.Incr*int64(i)*p.IOSize, wrap)
	case Partitioned:
		parts := int64(p.Partitions)
		part := p.TargetSize / parts / p.IOSize * p.IOSize
		rel = int64(i)%parts*part + mod64(int64(i)/parts*p.IOSize, part)
	}
	return p.TargetOffset + p.IOShift + rel
}

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
	p.IOCount = 40
	for i, got := range addrs(&p) {
		want := p.TargetOffset + p.IOShift + (int64(i)*p.IOSize)%p.TargetSize
		if got != want {
			t.Fatalf("lba(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestOrderedLBAFormula checks the Order micro-benchmark patterns: reverse
// (Incr=-1), in-place (Incr=0) and strided.
func TestOrderedLBAFormula(t *testing.T) {
	p := validPattern()
	p.LBA = Ordered

	p.Incr = 0 // in-place: LBA constant
	lbas := addrs(&p)
	for i := 1; i < 10; i++ {
		if lbas[i] != lbas[0] {
			t.Fatal("in-place pattern moved")
		}
	}

	p.Incr = -1 // reverse: decreasing LBAs, wrapped positive
	lbas = addrs(&p)
	for i := 2; i < 10; i++ {
		if lbas[i] != lbas[i-1]-p.IOSize {
			t.Fatalf("reverse step %d: %d -> %d", i, lbas[i-1], lbas[i])
		}
	}

	p.Incr = 4 // strided
	lbas = addrs(&p)
	if got := lbas[1] - lbas[0]; got != 4*p.IOSize {
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
	p.IOCount = 64
	ps := p.TargetSize / 4
	for i, got := range addrs(&p) {
		pi := int64(i % 4)
		oi := (int64(i/4) * p.IOSize) % ps
		want := pi*ps + oi
		if got != want {
			t.Fatalf("partitioned lba(%d) = %d, want %d", i, got, want)
		}
	}
}

// TestCursorMatchesClosedForm: the cursor each kind advances yields the
// closed form's addresses over several wraps of the target (of a partition),
// also from a source reset after another pattern. The targets and partitions
// are not whole numbers of IOs, and a stride of 256 IOs wraps at an offset.
func TestCursorMatchesClosedForm(t *testing.T) {
	reused := sourceOf(&Pattern{LBA: Ordered, Incr: 3, IOSize: 4096, TargetSize: 5 << 20, IOCount: 7})
	for i := 0; i < 5; i++ {
		reused.Next()
	}
	for _, target := range []int64{37*32<<10 + 4096, 1 << 20, 7*32<<10 - 512} {
		cases := []Pattern{{LBA: Sequential}, {LBA: Partitioned, Partitions: 3}, {LBA: Partitioned, Partitions: 1}}
		for _, incr := range []int64{-1, 0, 1, 256} {
			cases = append(cases, Pattern{LBA: Ordered, Incr: incr})
		}
		for _, p := range cases {
			p.Mode, p.IOSize, p.TargetSize, p.TargetOffset, p.IOShift = device.Write, 32<<10, target, 1<<20, 512
			wraps := p.TargetSize / p.IOSize // IOs to a wrap
			if p.LBA == Partitioned {
				wraps = p.TargetSize / int64(p.Partitions) / p.IOSize * int64(p.Partitions)
			}
			p.IOCount = int(4*wraps + 3)
			if err := p.Validate(); err != nil {
				t.Fatalf("%v target %d: %v", p.LBA, target, err)
			}
			reused.reset(&p)
			for i, got := range addrs(&p) {
				io, _ := reused.Next()
				if want := closedLBA(&p, i); got != want || io.Off != want {
					t.Fatalf("%v incr %d target %d: IO %d at %d (reused source: %d), want %d", p.LBA, p.Incr, target, i, got, io.Off, want)
				}
			}
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
		p.IOCount = int(count)%128 + 1
		for _, lba := range addrs(&p) {
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
				src := sourceOf(&p)
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
		src := sourceOf(&p)
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
	mix := NewMixSource(sourceOf(&a), sourceOf(&b), 3)
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
