package core

import (
	"strings"
	"testing"
	"time"

	"uflip/internal/device"
)

// TestCheckRefusesWhatCannotRun: each rule of Experiment.Check refuses, with
// the executor's own words where the executor has the rule, a run that fails
// on a device of the capacity checked.
func TestCheckRefusesWhatCannotRun(t *testing.T) {
	const capacity = 1 << 20
	d := StandardDefaults()
	d.IOCount = 8
	d.RandomTarget = capacity / 2
	with := func(p Pattern, f func(*Pattern)) Pattern { f(&p); return p }
	sw, rr := SW.Pattern(d), RR.Pattern(d)
	past := with(rr, func(p *Pattern) { p.TargetOffset = capacity - 64<<10 })
	for _, c := range []struct {
		name string
		e    Experiment
		want string
	}{
		{"no whole IO", Experiment{Pattern: with(rr, func(p *Pattern) { p.TargetSize = 16 << 10 })}, "core: TargetSize 16384 smaller than IOSize 32768"},
		{"past the device", Experiment{Pattern: with(sw, func(p *Pattern) { p.TargetOffset = capacity - 4*p.IOSize })}, "core: SW ends at byte 1179648, past the 1048576 bytes of the device"},
		{"no ratio", Experiment{Pattern: rr, MixWith: &sw, Ratio: 0}, "core: mix ratio must be >= 1, got 0"},
		{"invalid partner", Experiment{Pattern: rr, MixWith: &Pattern{Name: "SW", IOSize: 777}, Ratio: 2}, "core: mix pattern #2: core: IOSize 777 must be a multiple"},
		{"partner past the device", Experiment{Pattern: sw, MixWith: &past, Ratio: 2}, "core: RR ends at byte 1507328, past the 1048576 bytes"},
		{"target below the split", Experiment{Pattern: sw, Degree: 16}, "core: target 262144 too small for 16-way parallelism at IOSize 32768"},
		{"IOs below the split", Experiment{Pattern: rr, Degree: 16}, "core: IOCount 8 too small for 16 processes"},
		{"partitions below the split", Experiment{Pattern: with(sw, func(p *Pattern) { p.LBA, p.Partitions = Partitioned, 8 }), Degree: 2}, "core: partition size 16384 smaller than IOSize 32768"},
	} {
		err := c.e.Check(capacity)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Check says %v, want %q", c.name, err, c.want)
		}
		dev := device.NewMemDevice("mem", capacity, time.Millisecond, time.Millisecond)
		if _, err := c.e.Run(new(Scratch), dev, 0); err == nil {
			t.Errorf("%s: the run Check refuses ran", c.name)
		}
	}
}

// TestCheckedExperimentsRun: every experiment of every micro-benchmark that
// Check passes on a small device runs there to the end, and Check passes
// some and refuses some of them.
func TestCheckedExperimentsRun(t *testing.T) {
	passed, refused := 0, 0
	for _, capacity := range []int64{64 << 10, 96 << 10, 200<<10 + 512, 1 << 20} {
		for _, ios := range []int{1, 16} {
			d := StandardDefaults()
			d.IOCount, d.RandomTarget = ios, RandomTargetFor(capacity)
			dev := device.NewMemDevice("mem", capacity, time.Microsecond, time.Microsecond)
			for _, mb := range AllMicrobenchmarks(d, capacity) {
				for _, e := range mb.Experiments {
					if e.Check(capacity) != nil {
						refused++
						continue
					}
					passed++
					if _, err := e.Run(new(Scratch), dev, 0); err != nil {
						t.Errorf("%d bytes, %d IOs: %s passes Check and fails: %v", capacity, ios, e.ID(), err)
					}
				}
			}
		}
	}
	if passed == 0 || refused == 0 {
		t.Fatalf("Check passed %d experiments and refused %d: one side is untested", passed, refused)
	}
}

// TestPassingCheckAllocatesNothing: a plan checks every run it lays out and
// admission checks the probes, so a run that fits costs no allocation —
// pattern, mix and parallel runs alike.
func TestPassingCheckAllocatesNothing(t *testing.T) {
	const capacity = 1 << 30
	d := StandardDefaults()
	d.RandomTarget = RandomTargetFor(capacity)
	var exps []Experiment
	for _, mb := range AllMicrobenchmarks(d, capacity) {
		exps = append(exps, mb.Experiments...)
	}
	got := testing.AllocsPerRun(10, func() {
		for i := range exps {
			if err := exps[i].Check(capacity); err != nil {
				t.Fatalf("%s: %v", exps[i].ID(), err)
			}
		}
	})
	if got != 0 {
		t.Errorf("checking the %d runs of a plan allocates %v times, want 0", len(exps), got)
	}
}
