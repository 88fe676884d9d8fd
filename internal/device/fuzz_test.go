package device

import (
	"errors"
	"testing"
	"time"
)

// intent is how decodeBatch means one IO to be submitted, kept apart from
// its done-slot encoding so the reference never decodes a slot: at the
// absolute time t, or, when chained, t after the previous IO's completion.
type intent struct {
	chained bool
	t       time.Duration
}

// decodeBatch turns a fuzz byte program into a batch: 4 bytes per IO.
// Byte 0 picks the mode, the done-slot kind (absolute vs chained) and
// whether to corrupt the offset sign; byte 1 is the offset in 64KB slots
// (reaching past a 16MB device so out-of-range errors are exercised);
// byte 2 sizes the IO in 512B sectors; byte 3 is the time magnitude —
// milliseconds for absolute submissions, 100µs steps for chained gaps
// (255 collapsing to ChainNext, the zero-gap chain). It returns the IOs,
// their done-slot encodings and, for the reference, each IO's intent.
func decodeBatch(prog []byte) ([]IO, []time.Duration, []intent) {
	n := len(prog) / 4
	if n > 32 {
		n = 32
	}
	ios := make([]IO, n)
	done := make([]time.Duration, n)
	want := make([]intent, n)
	for i := 0; i < n; i++ {
		b0, b1, b2, b3 := prog[4*i], prog[4*i+1], prog[4*i+2], prog[4*i+3]
		mode := Read
		if b0&1 != 0 {
			mode = Write
		}
		off := int64(b1) * 65536
		if b0&0x80 != 0 {
			off = -off - 1
		}
		ios[i] = IO{Mode: mode, Off: off, Size: (int64(b2)%64 + 1) * 512}
		switch {
		case b0&2 != 0:
			want[i] = intent{t: time.Duration(b3) * time.Millisecond}
			done[i] = want[i].t
		case b3 == 255:
			want[i] = intent{chained: true}
			done[i] = ChainNext
		default:
			want[i] = intent{chained: true, t: time.Duration(b3) * 100 * time.Microsecond}
			done[i] = ChainAfter(want[i].t)
		}
	}
	return ios, done, want
}

// referenceBatch is the SubmitBatch contract written out apart from the
// code under test: each submission time comes from the decoded intent, and
// Submit runs once per IO. It returns the completions up to the first
// failure and the *BatchError that failure must abort with.
func referenceBatch(d Device, at time.Duration, ios []IO, want []intent) ([]time.Duration, error) {
	done := make([]time.Duration, 0, len(ios))
	prev := at
	for i, io := range ios {
		sub := want[i].t
		if want[i].chained {
			sub += prev
		}
		end, err := d.Submit(sub, io)
		if err != nil {
			return done, &BatchError{Index: i, IO: io, Err: err}
		}
		done = append(done, end)
		prev = end
	}
	return done, nil
}

// checkBatchAgainst fails the test unless a SubmitBatch result — its error
// and the done slice it filled from the input encodings in doneIn — matches
// the reference: the same error text, the reference's completions in
// done[:Index] (all of done on success), and the input encodings untouched
// in done[Index:].
func checkBatchAgainst(t *testing.T, label string, done, doneIn []time.Duration, err error, ref []time.Duration, refErr error) {
	t.Helper()
	switch {
	case (err == nil) != (refErr == nil):
		t.Fatalf("%s error divergence: batch=%v reference=%v", label, err, refErr)
	case err != nil && err.Error() != refErr.Error():
		t.Fatalf("%s error text divergence:\n batch:     %v\n reference: %v", label, err, refErr)
	case err != nil:
		var be *BatchError
		if !errors.As(err, &be) {
			t.Fatalf("%s batch error is not a *BatchError: %v", label, err)
		}
		for i := be.Index; i < len(done); i++ {
			if done[i] != doneIn[i] {
				t.Fatalf("%s done[%d] rewritten to %v; the tail must keep its input encodings", label, i, done[i])
			}
		}
	}
	for i, want := range ref {
		if done[i] != want {
			t.Fatalf("%s IO %d completes at %v batched, %v per-IO", label, i, done[i], want)
		}
	}
}

// FuzzSubmitBatchEquivalence drives a simulated device's SubmitBatch and a
// test-local per-IO reference (referenceBatch) over the same decoded batch
// and requires identical completion times, identical errors (position and
// text), and identical post-batch device state as observed through a probe
// IO. This is the property the whole batch-first pipeline rests on:
// batching is a calling-convention change, never a behavior change.
func FuzzSubmitBatchEquivalence(f *testing.F) {
	f.Add(int64(0), []byte{0x00, 0x01, 0x07, 0x02, 0x01, 0x02, 0x0f, 0xff})
	f.Add(int64(1), []byte{0x03, 0x10, 0x3f, 0x05, 0x00, 0x80, 0x00, 0x00, 0x81, 0x20, 0x1f, 0x07})
	f.Add(int64(2), []byte{0x01, 0xff, 0x3f, 0x00, 0x02, 0x00, 0x01, 0x40})
	f.Add(int64(3), []byte{0x80, 0x00, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		ios, doneIn, want := decodeBatch(prog)
		if len(ios) == 0 {
			return
		}
		writeBack := seed&1 != 0
		lag := 10 * time.Millisecond
		if seed&2 != 0 {
			lag = time.Millisecond
		}
		batch := newSim(t, writeBack, lag)
		serial := batch.CloneDevice()

		at := time.Duration(seed&0xff) * time.Millisecond
		ref, errRef := referenceBatch(serial, at, ios, want) // first: the batch gets no chance to touch ios
		done := append([]time.Duration(nil), doneIn...)
		errBatch := batch.SubmitBatch(at, ios, done)
		checkBatchAgainst(t, "sim", done, doneIn, errBatch, ref, errRef)

		// Probe: identical internal state must yield identical timing for
		// one more IO submitted long after the batch.
		probe := IO{Mode: Read, Off: 0, Size: 4096}
		probeAt := at + time.Hour
		gotB, errB := batch.Submit(probeAt, probe)
		gotS, errS := serial.Submit(probeAt, probe)
		if errB != nil || errS != nil {
			t.Fatalf("probe errors: batch=%v serial=%v", errB, errS)
		}
		if gotB != gotS {
			t.Fatalf("post-batch state drift: probe completes at %v batched, %v serial", gotB, gotS)
		}

		// Faulty-wrapped pair: an armed fault schedule consumes one op index
		// per IO in batch order, so the wrapper must preserve the same
		// batch/per-IO equivalence — injected errors, spikes and stalls
		// included.
		cfg := FaultConfig{
			Seed:         seed,
			ReadErrRate:  float64(seed>>8&0x3) * 0.1,
			WriteErrRate: float64(seed>>10&0x3) * 0.1,
			Spike:        time.Duration(seed>>12&0x3+1) * 100 * time.Microsecond,
			SpikeRate:    0.25,
			Stall:        time.Duration(seed>>14&0x3) * 100 * time.Microsecond,
			StallRate:    0.25,
			ErrOff:       seed >> 16 & 0xff * 65536,
		}
		fBase := newSim(t, writeBack, lag)
		fBatch := NewFaulty(cfg, fBase)
		fSerial := NewFaulty(cfg, fBase.CloneDevice())
		refF, errFS := referenceBatch(fSerial, at, ios, want)
		doneFB := append([]time.Duration(nil), doneIn...)
		errFB := fBatch.SubmitBatch(at, ios, doneFB)
		checkBatchAgainst(t, "faulty", doneFB, doneIn, errFB, refF, errFS)
		if fBatch.st.Op != fSerial.st.Op || fBatch.st.Injected != fSerial.st.Injected {
			t.Fatalf("faulty schedule drift: batch ops=%d inj=%+v, serial ops=%d inj=%+v",
				fBatch.st.Op, fBatch.st.Injected, fSerial.st.Op, fSerial.st.Injected)
		}
		pB, peB := fBatch.Submit(probeAt, probe)
		pS, peS := fSerial.Submit(probeAt, probe)
		if (peB == nil) != (peS == nil) || (peB != nil && peB.Error() != peS.Error()) || pB != pS {
			t.Fatalf("faulty probe drift: batch=(%v, %v) serial=(%v, %v)", pB, peB, pS, peS)
		}
	})
}
