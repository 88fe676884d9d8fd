package device

import (
	"context"
	"errors"
	"testing"
	"time"
)

func faultyMem(name string, cfg FaultConfig) (*FaultyDevice, *MemDevice) {
	m := NewMemDevice(name, 1<<20, time.Millisecond, 2*time.Millisecond)
	return NewFaulty(cfg, m), m
}

// mixedOps is a deterministic read/write mix covering the whole device.
func mixedOps(n int) []IO {
	ios := make([]IO, n)
	for i := range ios {
		mode := Read
		if i%3 == 0 {
			mode = Write
		}
		ios[i] = IO{Mode: mode, Off: int64(i%128) * 4096, Size: int64(i%4+1) * 512}
	}
	return ios
}

// outcome records one Submit result for exact comparison.
type outcome struct {
	done time.Duration
	err  string
}

func driveOutcomes(d Device, ios []IO) []outcome {
	var at time.Duration
	out := make([]outcome, len(ios))
	for i, io := range ios {
		done, err := d.Submit(at, io)
		out[i].done = done
		if err != nil {
			out[i].err = err.Error()
		} else {
			at = done
		}
	}
	return out
}

// TestFaultyUnarmedForwards pins the zero-fault fast path: a wrapper with no
// fault source configured is byte-identical to the raw device and does not
// even consume the op counter — the property the differential oracle and the
// noop-overhead benchmark both rest on.
func TestFaultyUnarmedForwards(t *testing.T) {
	raw := NewMemDevice("m", 1<<20, time.Millisecond, 2*time.Millisecond)
	wrapped, _ := faultyMem("m", FaultConfig{Seed: 99})

	ios := mixedOps(64)
	got := driveOutcomes(wrapped, ios)
	want := driveOutcomes(raw, ios)
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("op %d: unarmed wrapper diverged: %+v vs raw %+v", i, got[i], want[i])
		}
	}
	if wrapped.Ops() != 0 {
		t.Fatalf("unarmed wrapper consumed %d schedule ops, want 0", wrapped.Ops())
	}

	// Batch path: same equivalence through SubmitBatch with chained encodings.
	rawB := NewMemDevice("m", 1<<20, time.Millisecond, 2*time.Millisecond)
	wrapB := NewFaulty(FaultConfig{}, NewMemDevice("m", 1<<20, time.Millisecond, 2*time.Millisecond))
	doneRaw := make([]time.Duration, len(ios))
	doneWrap := make([]time.Duration, len(ios))
	for i := range doneRaw {
		doneRaw[i] = ChainNext
		doneWrap[i] = ChainNext
	}
	if err := rawB.SubmitBatch(0, ios, doneRaw); err != nil {
		t.Fatal(err)
	}
	if err := wrapB.SubmitBatch(0, ios, doneWrap); err != nil {
		t.Fatal(err)
	}
	for i := range doneRaw {
		if doneRaw[i] != doneWrap[i] {
			t.Fatalf("batch op %d: %v wrapped vs %v raw", i, doneWrap[i], doneRaw[i])
		}
	}
}

// TestFaultyScheduleDeterminism: the same config over the same IO sequence
// injects the same faults — same errors, same completions, same tallies — on
// every run.
func TestFaultyScheduleDeterminism(t *testing.T) {
	cfg := FaultConfig{
		Seed: 7, ReadErrRate: 0.2, WriteErrRate: 0.1,
		Spike: time.Millisecond, SpikeRate: 0.3,
		Stall: 2 * time.Millisecond, StallRate: 0.3,
	}
	ios := mixedOps(256)
	a, _ := faultyMem("m", cfg)
	b, _ := faultyMem("m", cfg)
	outA := driveOutcomes(a, ios)
	outB := driveOutcomes(b, ios)
	for i := range outA {
		if outA[i] != outB[i] {
			t.Fatalf("op %d: schedule not deterministic: %+v vs %+v", i, outA[i], outB[i])
		}
	}
	if a.Injections() != b.Injections() {
		t.Fatalf("injection tallies diverge: %+v vs %+v", a.Injections(), b.Injections())
	}
	inj := a.Injections()
	if inj.ReadErrs == 0 || inj.WriteErrs == 0 || inj.Spikes == 0 || inj.Stalls == 0 {
		t.Fatalf("expected every armed fault kind to fire over 256 ops, got %+v", inj)
	}
	// A different seed must select a different schedule.
	cfg.Seed = 8
	c, _ := faultyMem("m", cfg)
	outC := driveOutcomes(c, ios)
	same := true
	for i := range outA {
		if outA[i] != outC[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("seeds 7 and 8 produced identical schedules")
	}
}

// TestFaultyTypedErrors covers the explicit triggers: errop (transient,
// per-mode typed error, fail-fast without touching the wrapped device),
// failat (sticky ErrDeviceGone), erroff (sticky bad byte range).
func TestFaultyTypedErrors(t *testing.T) {
	t.Run("errop", func(t *testing.T) {
		f, inner := faultyMem("m", FaultConfig{ErrOps: []int64{1, 2}})
		if _, err := f.Submit(0, IO{Mode: Read, Off: 0, Size: 512}); err != nil {
			t.Fatalf("op 0 failed: %v", err)
		}
		before := inner.IOs()
		if _, err := f.Submit(0, IO{Mode: Read, Off: 0, Size: 512}); !errors.Is(err, ErrMediaRead) {
			t.Fatalf("read op 1: err = %v, want ErrMediaRead", err)
		}
		if _, err := f.Submit(0, IO{Mode: Write, Off: 0, Size: 512}); !errors.Is(err, ErrMediaWrite) {
			t.Fatalf("write op 2: err = %v, want ErrMediaWrite", err)
		}
		if inner.IOs() != before {
			t.Fatal("media errors must fail fast without reaching the wrapped device")
		}
		// Op indices 1 and 2 are consumed: the same IO retried succeeds.
		if _, err := f.Submit(0, IO{Mode: Write, Off: 0, Size: 512}); err != nil {
			t.Fatalf("retry under fresh op index failed: %v", err)
		}
	})
	t.Run("failat", func(t *testing.T) {
		f, _ := faultyMem("m", FaultConfig{FailAt: 2})
		for i := 0; i < 2; i++ {
			if _, err := f.Submit(0, IO{Mode: Read, Off: 0, Size: 512}); err != nil {
				t.Fatalf("op %d before FailAt failed: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			if _, err := f.Submit(0, IO{Mode: Read, Off: 0, Size: 512}); !errors.Is(err, ErrDeviceGone) {
				t.Fatalf("op past FailAt: err = %v, want ErrDeviceGone", err)
			}
		}
		if !f.Dead() {
			t.Fatal("device not marked dead after FailAt")
		}
	})
	t.Run("erroff", func(t *testing.T) {
		f, _ := faultyMem("m", FaultConfig{ErrOff: 8192})
		if _, err := f.Submit(0, IO{Mode: Read, Off: 0, Size: 512}); err != nil {
			t.Fatalf("IO off the bad offset failed: %v", err)
		}
		for i := 0; i < 3; i++ { // sticky: every retry re-hits the bad range
			if _, err := f.Submit(0, IO{Mode: Read, Off: 8192, Size: 512}); !errors.Is(err, ErrMediaRead) {
				t.Fatalf("IO over bad offset: err = %v, want ErrMediaRead", err)
			}
		}
		// The bad byte must be inside [Off, Off+Size): an IO ending exactly
		// at it passes.
		if _, err := f.Submit(0, IO{Mode: Read, Off: 8192 - 512, Size: 512}); err != nil {
			t.Fatalf("IO ending at the bad offset failed: %v", err)
		}
	})
}

// TestFaultyCloneResumesSchedule: a clone continues the fault schedule at the
// master's op counter, so sharded runs see the same injections a sequential
// run would.
func TestFaultyCloneResumesSchedule(t *testing.T) {
	cfg := FaultConfig{Seed: 3, ReadErrRate: 0.15, WriteErrRate: 0.15, Spike: time.Millisecond, SpikeRate: 0.2}
	master, _ := faultyMem("m", cfg)
	warm := mixedOps(40)
	driveOutcomes(master, warm)

	clone := master.CloneDevice().(*FaultyDevice)
	if clone.Ops() != master.Ops() {
		t.Fatalf("clone op counter %d, master %d", clone.Ops(), master.Ops())
	}
	rest := mixedOps(100)
	outM := driveOutcomes(master, rest)
	outC := driveOutcomes(clone, rest)
	for i := range outM {
		if outM[i] != outC[i] {
			t.Fatalf("op %d after clone: master %+v, clone %+v", i, outM[i], outC[i])
		}
	}
	if master.Injections() != clone.Injections() {
		t.Fatalf("tallies diverge: master %+v, clone %+v", master.Injections(), clone.Injections())
	}
}

// TestFaultySnapshotResumesSchedule: the snapshot/restore path (the state
// store's transport) carries the op counter, dead flag and tallies like the
// clone path does.
func TestFaultySnapshotResumesSchedule(t *testing.T) {
	cfg := FaultConfig{Seed: 5, ReadErrRate: 0.1, WriteErrRate: 0.1}
	master := NewFaulty(cfg, newSim(t, false, 0))
	driveOutcomes(master, mixedOps(30))

	snap, err := SnapshotDevice(master)
	if err != nil {
		t.Fatal(err)
	}
	restored := NewFaulty(cfg, newSim(t, false, 0))
	if err := RestoreDevice(restored, snap); err != nil {
		t.Fatal(err)
	}
	if restored.Ops() != master.Ops() || restored.Injections() != master.Injections() {
		t.Fatalf("restored counters %d/%+v, master %d/%+v",
			restored.Ops(), restored.Injections(), master.Ops(), master.Injections())
	}
	rest := mixedOps(60)
	outM := driveOutcomes(master, rest)
	outR := driveOutcomes(restored, rest)
	for i := range outM {
		if outM[i] != outR[i] {
			t.Fatalf("op %d after restore: master %+v, restored %+v", i, outM[i], outR[i])
		}
	}
	for _, d := range []Device{master, restored} {
		if err := Audit(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMirrorRoutesAroundDeadMember: when one mirror member goes gone, reads
// re-route to the survivor, writes succeed degraded, and the array only fails
// once every member is dead.
func TestMirrorRoutesAroundDeadMember(t *testing.T) {
	a := NewFaulty(FaultConfig{FailAt: 2}, NewMemDevice("a", 1<<20, time.Millisecond, time.Millisecond))
	b := NewMemDevice("b", 1<<20, time.Millisecond, time.Millisecond)
	d, err := NewComposite(CompositeConfig{Layout: LayoutMirror}, []Device{a, b})
	if err != nil {
		t.Fatal(err)
	}
	// Writes fan out to both members, so member a consumes one op per write:
	// writes 0 and 1 replicate fully, write 2 hits a's FailAt and must still
	// succeed on b alone.
	for i := 0; i < 3; i++ {
		if _, err := d.Submit(time.Duration(i)*time.Second, IO{Mode: Write, Off: 0, Size: 512}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !d.Dead(0) {
		t.Fatal("member 0 not marked dead after ErrDeviceGone")
	}
	if d.DegradedWrites() != 1 {
		t.Fatalf("degraded writes = %d, want 1", d.DegradedWrites())
	}
	// Reads keep working, routed to the survivor.
	before := b.IOs()
	for i := 0; i < 4; i++ {
		if _, err := d.Submit(3*time.Second, IO{Mode: Read, Off: 0, Size: 512}); err != nil {
			t.Fatalf("read after member death failed: %v", err)
		}
	}
	if b.IOs() != before+4 {
		t.Fatalf("survivor served %d reads, want 4", b.IOs()-before)
	}
	// Writes keep degrading; the tally grows.
	if _, err := d.Submit(4*time.Second, IO{Mode: Write, Off: 0, Size: 512}); err != nil {
		t.Fatal(err)
	}
	if d.DegradedWrites() != 2 {
		t.Fatalf("degraded writes = %d, want 2", d.DegradedWrites())
	}
}

// TestMirrorAllMembersGone: with every member dead the mirror finally fails,
// with ErrDeviceGone visible through the wrapping.
func TestMirrorAllMembersGone(t *testing.T) {
	a := NewFaulty(FaultConfig{FailAt: 1}, NewMemDevice("a", 1<<20, time.Millisecond, time.Millisecond))
	b := NewFaulty(FaultConfig{FailAt: 1}, NewMemDevice("b", 1<<20, time.Millisecond, time.Millisecond))
	d, err := NewComposite(CompositeConfig{Layout: LayoutMirror}, []Device{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.Submit(0, IO{Mode: Write, Off: 0, Size: 512}); err != nil {
		t.Fatal(err) // op 0 on each member succeeds
	}
	if _, err := d.Submit(time.Second, IO{Mode: Write, Off: 0, Size: 512}); !errors.Is(err, ErrDeviceGone) {
		t.Fatalf("write with all members gone: err = %v, want ErrDeviceGone", err)
	}
	if _, err := d.Submit(2*time.Second, IO{Mode: Read, Off: 0, Size: 512}); !errors.Is(err, ErrDeviceGone) {
		t.Fatalf("read with all members gone: err = %v, want ErrDeviceGone", err)
	}
}

// TestMirrorDeadRoutingSurvivesClone: the dead mask and degraded tally are
// part of the clone/snapshot state.
func TestMirrorDeadRoutingSurvivesClone(t *testing.T) {
	build := func() *CompositeDevice {
		a := NewFaulty(FaultConfig{FailAt: 1}, newSim(t, false, 0))
		d, err := NewComposite(CompositeConfig{Layout: LayoutMirror}, []Device{a, newSim(t, false, 0)})
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	d := build()
	// Write 0 replicates fully (member a's op 0); write 1 hits a's FailAt.
	for i := 0; i < 2; i++ {
		if _, err := d.Submit(time.Duration(i)*time.Second, IO{Mode: Write, Off: 0, Size: 512}); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if !d.Dead(0) || d.DegradedWrites() != 1 {
		t.Fatalf("dead=%v degraded=%d, want dead member 0 and 1 degraded write", d.Dead(0), d.DegradedWrites())
	}
	cl := d.CloneDevice().(*CompositeDevice)
	if !cl.Dead(0) || cl.DegradedWrites() != 1 {
		t.Fatal("clone lost the dead mask or the degraded tally")
	}
	snap, err := SnapshotDevice(d)
	if err != nil {
		t.Fatal(err)
	}
	fresh := build()
	if err := RestoreDevice(fresh, snap); err != nil {
		t.Fatal(err)
	}
	if !fresh.Dead(0) || fresh.DegradedWrites() != 1 {
		t.Fatal("snapshot/restore lost the dead mask or the degraded tally")
	}
	for _, d := range []Device{d, cl, fresh} {
		if err := Audit(d); err != nil {
			t.Fatal(err)
		}
	}
}

// chainInputs returns a fresh all-ChainNext done slice.
func chainInputs(n int) []time.Duration {
	done := make([]time.Duration, n)
	for i := range done {
		done[i] = ChainNext
	}
	return done
}

// TestBatchErrorPartialCompletion pins the SubmitBatch failure contract on
// every implementation: done[:Index] holds the final completions of the IOs
// before the failure (identical to submitting them one by one), and
// done[Index:] still holds the untouched input encodings — the property
// SubmitBatchRetry's tail resubmission rests on.
func TestBatchErrorPartialCompletion(t *testing.T) {
	mem := func(name string) Device {
		return NewMemDevice(name, 1<<20, time.Millisecond, 2*time.Millisecond)
	}
	builders := map[string]func(t *testing.T) Cloneable{
		"sim": func(t *testing.T) Cloneable { return newSim(t, false, 0) },
		"stripe": func(t *testing.T) Cloneable {
			d, err := NewComposite(CompositeConfig{Layout: LayoutStripe, ChunkBytes: 64 * 1024}, []Device{mem("a"), mem("b")})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"mirror": func(t *testing.T) Cloneable {
			d, err := NewComposite(CompositeConfig{Layout: LayoutMirror}, []Device{mem("a"), mem("b")})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"concat": func(t *testing.T) Cloneable {
			d, err := NewComposite(CompositeConfig{Layout: LayoutConcat}, []Device{mem("a"), mem("b")})
			if err != nil {
				t.Fatal(err)
			}
			return d
		},
		"serial": func(t *testing.T) Cloneable { return NewPerIO(mem("a").(*MemDevice)) },
		"faulty": func(t *testing.T) Cloneable {
			return NewFaulty(FaultConfig{ErrOps: []int64{5}}, mem("a").(*MemDevice))
		},
	}
	for name, build := range builders {
		t.Run(name, func(t *testing.T) {
			dev := build(t)
			ref := build(t)
			const n, failIdx = 8, 5
			ios := make([]IO, n)
			for i := range ios {
				ios[i] = IO{Mode: Write, Off: int64(i) * 4096, Size: 4096}
			}
			if name != "faulty" {
				ios[failIdx].Off = dev.Capacity() // out of range
			}
			done := chainInputs(n)
			done[failIdx+1] = ChainAfter(time.Millisecond) // distinctive tail encodings
			done[failIdx+2] = 42 * time.Second
			tail := append([]time.Duration(nil), done[failIdx:]...)

			err := dev.SubmitBatch(0, ios, done)
			var be *BatchError
			if !errors.As(err, &be) {
				t.Fatalf("err = %v, want *BatchError", err)
			}
			if be.Index != failIdx {
				t.Fatalf("failed at index %d, want %d", be.Index, failIdx)
			}
			if be.IO != ios[failIdx] {
				t.Fatalf("BatchError.IO = %+v, want %+v", be.IO, ios[failIdx])
			}
			// done[:Index] is final: identical to per-IO submission of the
			// prefix on an identical device.
			prev := time.Duration(0)
			for i := 0; i < failIdx; i++ {
				want, err := ref.Submit(prev, ios[i])
				if err != nil {
					t.Fatalf("reference op %d: %v", i, err)
				}
				if done[i] != want {
					t.Fatalf("done[%d] = %v, per-IO reference %v", i, done[i], want)
				}
				prev = want
			}
			// done[Index:] keeps the input encodings untouched.
			for i := failIdx; i < n; i++ {
				if done[i] != tail[i-failIdx] {
					t.Fatalf("done[%d] rewritten to %v; the tail must keep its input encodings", i, done[i])
				}
			}
		})
	}
}

// TestSubmitBatchRetryRecovers: a transient media error consumes a retry,
// pushes the failed IO out by the backoff, and the batch completes with the
// correct chained timing for the rest.
func TestSubmitBatchRetryRecovers(t *testing.T) {
	f, _ := faultyMem("m", FaultConfig{ErrOps: []int64{2}})
	ios := mixedOps(6)
	done := chainInputs(len(ios))
	var st FaultStats
	pol := RetryPolicy{Max: 2, Backoff: time.Millisecond}
	if err := SubmitBatchRetry(context.Background(), f, 0, ios, done, pol, &st); err != nil {
		t.Fatal(err)
	}
	if st.Faults != 1 || st.Retries != 1 {
		t.Fatalf("stats = %+v, want 1 fault, 1 retry", st)
	}
	// Reference: the same sequence on a clean device, with IO 2 submitted
	// Backoff after IO 1's completion instead of immediately.
	ref := NewMemDevice("m", 1<<20, time.Millisecond, 2*time.Millisecond)
	prev := time.Duration(0)
	for i, io := range ios {
		at := prev
		if i == 2 {
			at += pol.Backoff
		}
		want, err := ref.Submit(at, io)
		if err != nil {
			t.Fatal(err)
		}
		if done[i] != want {
			t.Fatalf("done[%d] = %v, want %v", i, done[i], want)
		}
		prev = want
	}
}

// TestSubmitBatchRetryExhausts: a sticky fault (bad offset) burns through
// pol.Max retries with doubling backoff and then surfaces the typed error at
// the right index.
func TestSubmitBatchRetryExhausts(t *testing.T) {
	f, _ := faultyMem("m", FaultConfig{ErrOff: 4096})
	ios := []IO{
		{Mode: Write, Off: 0, Size: 512},
		{Mode: Read, Off: 4096, Size: 512}, // covers the bad byte forever
		{Mode: Read, Off: 0, Size: 512},
	}
	done := chainInputs(len(ios))
	var st FaultStats
	pol := RetryPolicy{Max: 3, Backoff: time.Millisecond}
	err := SubmitBatchRetry(context.Background(), f, 0, ios, done, pol, &st)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, ErrMediaRead) {
		t.Fatalf("err = %v, want *BatchError at index 1 wrapping ErrMediaRead", err)
	}
	if st.Faults != int64(pol.Max)+1 || st.Retries != int64(pol.Max) {
		t.Fatalf("stats = %+v, want %d faults, %d retries", st, pol.Max+1, pol.Max)
	}
	if done[0] == ChainNext {
		t.Fatal("done[0] must hold IO 0's final completion despite the later failure")
	}
}

// TestSubmitBatchRetryNonRetryable: ErrDeviceGone is final — no retries, the
// error surfaces immediately with the batch-relative index rebased correctly.
func TestSubmitBatchRetryNonRetryable(t *testing.T) {
	f, _ := faultyMem("m", FaultConfig{FailAt: 3})
	ios := mixedOps(6)
	done := chainInputs(len(ios))
	var st FaultStats
	err := SubmitBatchRetry(context.Background(), f, 0, ios, done, DefaultRetryPolicy, &st)
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 3 || !errors.Is(err, ErrDeviceGone) {
		t.Fatalf("err = %v, want *BatchError at index 3 wrapping ErrDeviceGone", err)
	}
	if st.Faults != 1 || st.Retries != 0 {
		t.Fatalf("stats = %+v, want 1 fault, 0 retries", st)
	}
}

// cancelOnFault fails retryably forever and cancels the context on its first
// failure — the device-side stand-in for a user DELETE arriving while the
// retry loop is mid-backoff.
type cancelOnFault struct {
	*MemDevice
	cancel context.CancelFunc
}

func (c *cancelOnFault) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	return &BatchError{Index: 0, IO: ios[0], Err: ErrMediaRead}
}

// TestSubmitBatchRetryHonorsCancellation pins the satellite-2 property at its
// lowest level: cancellation interrupts the retry loop between attempts, even
// when the fault would otherwise keep the loop busy to exhaustion.
func TestSubmitBatchRetryHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	dev := &cancelOnFault{
		MemDevice: NewMemDevice("m", 1<<20, time.Millisecond, time.Millisecond),
		cancel:    cancel,
	}
	ios := mixedOps(4)
	done := chainInputs(len(ios))
	var st FaultStats
	err := SubmitBatchRetry(ctx, dev, 0, ios, done, RetryPolicy{Max: 1 << 20, Backoff: time.Microsecond}, &st)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Faults != 1 {
		t.Fatalf("loop kept retrying after cancellation: %+v", st)
	}

	// Already-canceled contexts do not submit at all.
	pre, cancel2 := context.WithCancel(context.Background())
	cancel2()
	probe := NewMemDevice("m", 1<<20, time.Millisecond, time.Millisecond)
	if err := SubmitBatchRetry(pre, probe, 0, ios, chainInputs(len(ios)), DefaultRetryPolicy, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if probe.IOs() != 0 {
		t.Fatal("canceled context still reached the device")
	}
}
