package device

import (
	"errors"
	"testing"
	"time"
)

// decodeBatch turns a fuzz byte program into a batch: 4 bytes per IO.
// Byte 0 picks the mode, the done-slot kind (absolute vs chained) and
// whether to corrupt the offset sign; byte 1 is the offset in 64KB slots
// (reaching past a 16MB device so out-of-range errors are exercised);
// byte 2 sizes the IO in 512B sectors; byte 3 is the time magnitude —
// milliseconds for absolute submissions, 100µs steps for chained gaps
// (255 collapsing to ChainNext, the zero-gap chain).
func decodeBatch(prog []byte) ([]IO, []time.Duration) {
	n := len(prog) / 4
	if n > 32 {
		n = 32
	}
	ios := make([]IO, n)
	done := make([]time.Duration, n)
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
			done[i] = time.Duration(b3) * time.Millisecond
		case b3 == 255:
			done[i] = ChainNext
		default:
			done[i] = ChainAfter(time.Duration(b3) * 100 * time.Microsecond)
		}
	}
	return ios, done
}

// FuzzSubmitBatchEquivalence drives a simulated device's native SubmitBatch
// and the per-IO SerialSubmitBatch reference over the same decoded batch and
// requires identical completion times, identical errors (position and text),
// and identical post-batch device state as observed through a probe IO. This
// is the property the whole batch-first pipeline rests on: batching is a
// calling-convention change, never a behavior change.
func FuzzSubmitBatchEquivalence(f *testing.F) {
	f.Add(int64(0), []byte{0x00, 0x01, 0x07, 0x02, 0x01, 0x02, 0x0f, 0xff})
	f.Add(int64(1), []byte{0x03, 0x10, 0x3f, 0x05, 0x00, 0x80, 0x00, 0x00, 0x81, 0x20, 0x1f, 0x07})
	f.Add(int64(2), []byte{0x01, 0xff, 0x3f, 0x00, 0x02, 0x00, 0x01, 0x40})
	f.Add(int64(3), []byte{0x80, 0x00, 0x00, 0xff})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		ios, done := decodeBatch(prog)
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
		doneIn := append([]time.Duration(nil), done...)
		doneSerial := append([]time.Duration(nil), done...)
		errBatch := batch.SubmitBatch(at, ios, done)
		errSerial := SerialSubmitBatch(serial, at, append([]IO(nil), ios...), doneSerial)

		switch {
		case (errBatch == nil) != (errSerial == nil):
			t.Fatalf("error divergence: batch=%v serial=%v", errBatch, errSerial)
		case errBatch != nil && errBatch.Error() != errSerial.Error():
			t.Fatalf("error text divergence:\n batch:  %v\n serial: %v", errBatch, errSerial)
		}
		for i := range done {
			if errBatch != nil {
				var be *BatchError
				if !errors.As(errBatch, &be) {
					t.Fatalf("batch error is not a *BatchError: %v", errBatch)
				}
				if i >= be.Index {
					break // slots at and past the failure are unspecified
				}
			}
			if done[i] != doneSerial[i] {
				t.Fatalf("IO %d completes at %v batched, %v serial", i, done[i], doneSerial[i])
			}
		}

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
		// batch/serial equivalence — injected errors, spikes and stalls
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
		doneFB := append([]time.Duration(nil), doneIn...)
		doneFS := append([]time.Duration(nil), doneIn...)
		errFB := fBatch.SubmitBatch(at, ios, doneFB)
		errFS := SerialSubmitBatch(fSerial, at, append([]IO(nil), ios...), doneFS)
		switch {
		case (errFB == nil) != (errFS == nil):
			t.Fatalf("faulty error divergence: batch=%v serial=%v", errFB, errFS)
		case errFB != nil && errFB.Error() != errFS.Error():
			t.Fatalf("faulty error text divergence:\n batch:  %v\n serial: %v", errFB, errFS)
		}
		for i := range doneFB {
			if errFB != nil {
				var be *BatchError
				if !errors.As(errFB, &be) {
					t.Fatalf("faulty batch error is not a *BatchError: %v", errFB)
				}
				if i >= be.Index {
					break
				}
			}
			if doneFB[i] != doneFS[i] {
				t.Fatalf("faulty IO %d completes at %v batched, %v serial", i, doneFB[i], doneFS[i])
			}
		}
		if fBatch.Ops() != fSerial.Ops() || fBatch.Injections() != fSerial.Injections() {
			t.Fatalf("faulty schedule drift: batch ops=%d inj=%+v, serial ops=%d inj=%+v",
				fBatch.Ops(), fBatch.Injections(), fSerial.Ops(), fSerial.Injections())
		}
		pB, peB := fBatch.Submit(probeAt, probe)
		pS, peS := fSerial.Submit(probeAt, probe)
		if (peB == nil) != (peS == nil) || (peB != nil && peB.Error() != peS.Error()) || pB != pS {
			t.Fatalf("faulty probe drift: batch=(%v, %v) serial=(%v, %v)", pB, peB, pS, peS)
		}
	})
}
