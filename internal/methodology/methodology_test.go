package methodology

import (
	"math/rand"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/profile"
)

func smallDevice(t testing.TB, key string) device.Device {
	t.Helper()
	p, err := profile.ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := p.BuildWithCapacity(256 << 20)
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func TestEnforceRandomStateFillsDevice(t *testing.T) {
	dev := smallDevice(t, "kingston-dti")
	end, err := EnforceRandomState(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	if end <= 0 {
		t.Fatal("state enforcement took no device time")
	}
	// After the fill, reads across the device hit mapped data: random
	// reads must cost real flash time, not the controller-only cost of an
	// unmapped region.
	d := core.StandardDefaults()
	d.IOCount = 64
	d.RandomTarget = dev.Capacity() / 2
	run, err := core.ExecutePattern(new(core.Scratch), dev, core.RR.Pattern(d), end+time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if run.Summary.Mean < 0.0005 {
		t.Fatalf("random reads after fill cost only %.3f ms: device not filled", run.Summary.Mean*1e3)
	}
}

func TestEnforceSequentialState(t *testing.T) {
	dev := smallDevice(t, "kingston-dti")
	end, err := EnforceSequentialState(dev, 1)
	if err != nil {
		t.Fatal(err)
	}
	random := smallDevice(t, "kingston-dti")
	rEnd, err := EnforceRandomState(random, 1)
	if err != nil {
		t.Fatal(err)
	}
	// The paper: sequential state enforcement is much faster (one
	// sequential pass) than the random fill.
	if end >= rEnd {
		t.Fatalf("sequential fill (%v) not faster than random fill (%v)", end, rEnd)
	}
}

func TestMeasurePhasesMtron(t *testing.T) {
	dev := smallDevice(t, "mtron")
	at, err := EnforceRandomState(dev, 2)
	if err != nil {
		t.Fatal(err)
	}
	d := core.StandardDefaults()
	d.RandomTarget = dev.Capacity() / 2
	rep, err := MeasurePhases(dev, d, 2048, at+5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// The Mtron-class device has a start-up phase for random writes only
	// (Section 5.1): IOIgnore positive for RW, zero for reads.
	if rep.IOIgnore[core.RW] == 0 {
		t.Error("no RW start-up detected on the Mtron profile")
	}
	if rep.IOIgnore[core.SR] != 0 {
		t.Errorf("SR start-up = %d, want 0", rep.IOIgnore[core.SR])
	}
	// Oscillating random writes demand a longer run.
	if rep.IOCount[core.RW] <= rep.IOCount[core.SR] {
		t.Errorf("RW IOCount %d not larger than SR %d", rep.IOCount[core.RW], rep.IOCount[core.SR])
	}
	if rep.IOCount[core.RW] <= 2*rep.IOIgnore[core.RW] {
		t.Error("IOCount does not cover the start-up phase")
	}
}

func TestMeasurePauseMemDeviceHasNoLinger(t *testing.T) {
	dev := device.NewMemDevice("mem", 1<<30, time.Millisecond, 2*time.Millisecond)
	d := core.StandardDefaults()
	rep, err := MeasurePause(dev, d, 0)
	if err != nil {
		t.Fatal(err)
	}
	if rep.LingerIOs != 0 {
		t.Fatalf("uniform device lingered %d IOs", rep.LingerIOs)
	}
	// Conservative floor of 1 s (Section 5.1).
	if rep.RecommendedPause < time.Second {
		t.Fatalf("pause %v below the conservative floor", rep.RecommendedPause)
	}
}

func TestMeasurePauseMtronLingers(t *testing.T) {
	dev := smallDevice(t, "mtron")
	at, err := EnforceRandomState(dev, 3)
	if err != nil {
		t.Fatal(err)
	}
	d := core.StandardDefaults()
	d.RandomTarget = dev.Capacity() / 2
	rep, err := MeasurePause(dev, d, at+5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 5: the Mtron's asynchronous reclamation slows reads for
	// thousands of IOs after a random-write batch.
	if rep.LingerIOs < 50 {
		t.Fatalf("lingering = %d reads, want a substantial tail", rep.LingerIOs)
	}
	if rep.RecommendedPause <= time.Second {
		t.Fatalf("pause %v should exceed the floor on a lingering device", rep.RecommendedPause)
	}
	if len(rep.Trace()) != rep.ReadsBefore+rep.Writes+11000 {
		t.Fatalf("trace length %d", len(rep.Trace()))
	}
}

func TestBuildPlanSeparatesSequentialWrites(t *testing.T) {
	d := core.StandardDefaults()
	const capacity = 8 << 30
	var exps []core.Experiment
	for _, mb := range core.AllMicrobenchmarks(d, capacity) {
		exps = append(exps, mb.Experiments...)
	}
	plan := BuildPlan(exps, capacity, time.Second, nil)
	if len(plan.Runs) != len(exps) {
		t.Fatalf("plan lost experiments: %d runs for %d experiments", len(plan.Runs), len(exps))
	}
	// Sequential-write experiments are grouped at the end with disjoint
	// target spaces between resets; allocation restarts at offset 0 exactly
	// where a reset is counted.
	seenSeqWrite := false
	type span struct{ lo, hi int64 }
	var spans []span
	for _, e := range plan.Runs {
		if disturbsState(&e) {
			if seenSeqWrite && e.Pattern.TargetOffset == 0 {
				spans = nil
			}
			seenSeqWrite = true
			lo, hi := e.Pattern.Span()
			if e.MixWith != nil {
				_, mhi := e.MixWith.Span()
				if mhi > hi {
					hi = mhi
				}
			}
			if hi > capacity {
				t.Fatalf("%s target [%d,%d) beyond device", e.ID(), lo, hi)
			}
			for _, s := range spans {
				if lo < s.hi && s.lo < hi {
					t.Fatalf("%s overlaps earlier sequential-write target", e.ID())
				}
			}
			spans = append(spans, span{lo, hi})
		} else if seenSeqWrite {
			t.Fatalf("non-disturbing experiment %s scheduled after sequential writes", e.ID())
		}
	}
	if !seenSeqWrite {
		t.Fatal("plan contains no sequential-write experiments")
	}
}

func TestBuildPlanInsertsResets(t *testing.T) {
	d := core.StandardDefaults()
	d.IOCount = 1024
	// A tiny device forces the accumulated sequential-write target space
	// past capacity.
	const capacity = 64 << 20
	var exps []core.Experiment
	mb := core.Table1[3].Build(d, capacity) // Partitioning
	for i := 0; i < 8; i++ {
		exps = append(exps, mb.Experiments...)
	}
	plan := BuildPlan(exps, capacity, time.Second, nil)
	if plan.Resets == 0 {
		t.Fatal("no state resets despite exceeding the device")
	}
	// Every reset restarts the sequential-write allocation at offset 0, and
	// nothing else does: the marker the plan's serial walkers re-enforce at.
	restarts, seqWrites := 0, 0
	for _, e := range plan.Runs {
		if disturbsState(&e) {
			if seqWrites > 0 && e.Pattern.TargetOffset == 0 {
				restarts++
			}
			seqWrites++
		}
	}
	if restarts != plan.Resets {
		t.Fatalf("%d allocation restarts for %d resets", restarts, plan.Resets)
	}
}

func TestBuildPlanAppliesPhases(t *testing.T) {
	d := core.StandardDefaults()
	phases := &PhaseReport{
		IOIgnore: map[core.Baseline]int{core.RW: 128},
		IOCount:  map[core.Baseline]int{core.RW: 5120},
	}
	exps := []core.Experiment{{Micro: "t", Base: core.RW, Pattern: core.RW.Pattern(d)}}
	plan := BuildPlan(exps, 8<<30, time.Second, phases)
	got := plan.Runs[0].Pattern
	if got.IOIgnore != 128 || got.IOCount != 5120 {
		t.Fatalf("phases not applied: ignore=%d count=%d", got.IOIgnore, got.IOCount)
	}
}

// TestBuildPlanDropsWhatDoesNotFit: the plan keeps exactly the experiments
// that, sized by the phase report, fit the device, and each still fits where
// the layout places it. At 512 KiB and 16 IOs every baseline's target is
// held to half the device, 256 KiB: eight IOs, too few to split among 16
// processes.
func TestBuildPlanDropsWhatDoesNotFit(t *testing.T) {
	const capacity = 512 << 10
	d := core.StandardDefaults()
	d.IOCount, d.RandomTarget = 16, core.RandomTargetFor(capacity)
	phases := &PhaseReport{IOIgnore: map[core.Baseline]int{}, IOCount: map[core.Baseline]int{}}
	for _, b := range core.Baselines {
		phases.IOCount[b] = 1024
	}
	var exps []core.Experiment
	for _, mb := range core.AllMicrobenchmarks(d, capacity) {
		exps = append(exps, mb.Experiments...)
	}
	plan := BuildPlan(exps, capacity, time.Second, phases)
	kept := map[string]bool{}
	for _, e := range plan.Runs {
		kept[e.ID()] = true
		if err := e.Check(capacity); err != nil {
			t.Errorf("%s as laid out at offset %d: %v", e.ID(), e.Pattern.TargetOffset, err)
		}
	}
	for _, e := range exps {
		applyPhases(&e, phases)
		if fits := e.Check(capacity) == nil; fits != kept[e.ID()] {
			t.Errorf("%s: fits %v, in the plan %v", e.ID(), fits, kept[e.ID()])
		}
	}
	for id, want := range map[string]bool{"Parallelism/SR/ParallelDegree=8": true, "Parallelism/SR/ParallelDegree=16": false, "Parallelism/RW/ParallelDegree=16": false} {
		if kept[id] != want {
			t.Errorf("%s in the plan: %v, want %v", id, kept[id], want)
		}
	}
	if len(plan.Runs) == 0 || len(plan.Runs) == len(exps) {
		t.Fatalf("the plan keeps %d of %d experiments", len(plan.Runs), len(exps))
	}
}

// recordingDevice captures every submitted IO so tests can pin the exact
// enforcement sequence on awkward capacities.
type recordingDevice struct {
	*device.MemDevice
	ios []device.IO
}

func newRecorder(capacity int64) *recordingDevice {
	return &recordingDevice{MemDevice: device.NewMemDevice("rec", capacity, time.Microsecond, time.Microsecond)}
}

func (d *recordingDevice) Submit(at time.Duration, io device.IO) (time.Duration, error) {
	d.ios = append(d.ios, io)
	return d.MemDevice.Submit(at, io)
}

// SubmitBatch routes through the recorder's own Submit (the embedded
// MemDevice's promoted batch path would bypass the recording override).
func (d *recordingDevice) SubmitBatch(at time.Duration, ios []device.IO, done []time.Duration) error {
	return device.SerialSubmitBatch(d, at, ios, done)
}

func TestEnforceStateTinyCapacities(t *testing.T) {
	// Regression: capacities at or below one 128 KB flash block used to
	// panic in rand.Int63n (non-positive bound) on the random path, and
	// unaligned capacities produced sub-sector tail IOs on the sequential
	// path. Every case must terminate without panicking or erroring.
	cases := []int64{512, 1024, 1536, 4096, 100, 700, 128 * 1024, 128*1024 + 512, 128*1024 + 700, 256*1024 - 512, 1 << 20}
	for _, capacity := range cases {
		for _, random := range []bool{true, false} {
			dev := newRecorder(capacity)
			end, err := enforceState(dev, 42, random)
			if err != nil {
				t.Fatalf("capacity %d random=%v: %v", capacity, random, err)
			}
			if len(dev.ios) == 0 {
				t.Fatalf("capacity %d random=%v: no IOs submitted", capacity, random)
			}
			if end <= 0 {
				t.Fatalf("capacity %d random=%v: no device time elapsed", capacity, random)
			}
			var written int64
			for i, io := range dev.ios {
				if io.Mode != device.Write {
					t.Fatalf("capacity %d random=%v: IO %d is not a write", capacity, random, i)
				}
				if io.Size <= 0 || io.Off < 0 || io.Off+io.Size > capacity {
					t.Fatalf("capacity %d random=%v: IO %d out of range: off=%d size=%d", capacity, random, i, io.Off, io.Size)
				}
				if capacity >= 512 && io.Size%512 != 0 && io.Size != capacity {
					t.Fatalf("capacity %d random=%v: IO %d has sub-sector size %d", capacity, random, i, io.Size)
				}
				written += io.Size
			}
			// The random fill covers at least the capacity; the sequential
			// fill covers everything but an unreachable sub-sector tail.
			min := capacity
			if !random {
				min = capacity &^ 511
				if capacity < 512 {
					min = capacity
				}
			}
			if written < min {
				t.Fatalf("capacity %d random=%v: wrote %d bytes, want >= %d", capacity, random, written, min)
			}
		}
	}
}

func TestEnforceSequentialStateUnalignedTail(t *testing.T) {
	// 128 KB + 700 B: one full block, then a 512 B tail (700 aligned down),
	// then the 188 B remainder is skipped — never a sub-sector IO, never a
	// zero-size IO.
	dev := newRecorder(128*1024 + 700)
	if _, err := EnforceSequentialState(dev, 1); err != nil {
		t.Fatal(err)
	}
	want := []device.IO{
		{Mode: device.Write, Off: 0, Size: 128 * 1024},
		{Mode: device.Write, Off: 128 * 1024, Size: 512},
	}
	if len(dev.ios) != len(want) {
		t.Fatalf("got %d IOs, want %d: %+v", len(dev.ios), len(want), dev.ios)
	}
	for i := range want {
		if dev.ios[i] != want[i] {
			t.Fatalf("IO %d: got %+v, want %+v", i, dev.ios[i], want[i])
		}
	}
}

func TestEnforceRandomStateSector(t *testing.T) {
	// capacity == 512: every drawn IO clamps to the whole device.
	dev := newRecorder(512)
	if _, err := EnforceRandomState(dev, 7); err != nil {
		t.Fatal(err)
	}
	for i, io := range dev.ios {
		if io.Off != 0 || io.Size != 512 {
			t.Fatalf("IO %d: got %+v, want the whole 512 B device", i, io)
		}
	}
}

func TestEnforceStateLargeAlignedUnchanged(t *testing.T) {
	// The clamp must not disturb the RNG stream of the normal case: the
	// enforcement IO sequence on a block-aligned device is pinned against
	// an independent re-derivation of the original algorithm.
	const capacity = 4 << 20
	dev := newRecorder(capacity)
	if _, err := EnforceRandomState(dev, 42); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	var written int64
	for i := 0; written < capacity; i++ {
		size := (rng.Int63n(128*1024/512) + 1) * 512
		slot := rng.Int63n((capacity - size) / 512)
		want := device.IO{Mode: device.Write, Off: slot * 512, Size: size}
		if i >= len(dev.ios) || dev.ios[i] != want {
			t.Fatalf("IO %d diverged from the pre-fix sequence", i)
		}
		written += size
	}
}
