package device

import (
	"context"
	"errors"
	"slices"
	"testing"
	"time"
)

// driveCase is one IO stream through Drive: n IOs of mixedOps handed out
// batch at a time, IO i encoded by enc from the completion next was given.
type driveCase struct {
	name  string
	cfg   FaultConfig
	n     int
	batch int
	enc   func(i int, last time.Duration) time.Duration
	// retried, when positive, is the stream index of an IO whose first
	// attempt fails and whose retry succeeds.
	retried int
	// stopAt, when positive, is the stream index of a batch that next
	// refuses with errStop instead of returning.
	stopAt int
	// failAt, when positive, is the stream index of an IO that fails for
	// good.
	failAt int
}

var errStop = errors.New("stop")

// driveReference is what Drive must measure, IO by IO on a plain
// MemDevice: each IO is submitted at its decoded time (plus the backoff of
// a retried one), and its response time runs from the decoded submission.
// lasts[b] is the completion next must be given before batch b.
func driveReference(tc driveCase, at time.Duration) (rts, comps, lasts []time.Duration) {
	ref := NewMemDevice("m", 1<<20, time.Millisecond, 2*time.Millisecond)
	prev, last := at, at
	for i, io := range mixedOps(tc.n) {
		if i%tc.batch == 0 {
			last = prev
			lasts = append(lasts, last)
		}
		sub := tc.enc(i, last)
		if sub < 0 {
			sub = prev + (-sub - 1)
		}
		delay := time.Duration(0)
		if tc.retried > 0 && i == tc.retried {
			delay = RetryBackoff
		}
		c, err := ref.Submit(sub+delay, io)
		if err != nil {
			panic(err)
		}
		rts = append(rts, c-sub)
		comps = append(comps, c)
		prev = c
	}
	return rts, comps, lasts
}

// TestDrive drives each stream through a fault-injecting MemDevice and checks
// every response time, the completion each next call is given, the stream's
// latest completion, the fault counts and how the stream ends.
func TestDrive(t *testing.T) {
	const at = 5 * time.Millisecond
	chained := func(i int, _ time.Duration) time.Duration { return ChainAfter(time.Duration(i%3) * time.Millisecond) }
	cases := []driveCase{
		{name: "closed loop", n: 300, batch: DriveBatch, enc: chained},
		{name: "open loop", n: 300, batch: DriveBatch,
			enc: func(i int, _ time.Duration) time.Duration { return at + time.Duration(i)*700*time.Microsecond }},
		{name: "one-IO feedback", n: 40, batch: 1,
			enc: func(_ int, last time.Duration) time.Duration { return last + 3*time.Millisecond }},
		{name: "retried fault in the second batch", cfg: FaultConfig{ErrOps: []int64{130}},
			n: 300, batch: DriveBatch, enc: chained, retried: 130},
		{name: "final fault in the second batch", cfg: FaultConfig{FailAt: 140},
			n: 300, batch: DriveBatch, enc: chained, failAt: 140},
		{name: "next fails", n: 300, batch: DriveBatch, enc: chained, stopAt: 2 * DriveBatch},
		{name: "empty stream", n: 0, batch: DriveBatch, enc: chained},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dev, mem := faultyMem("m", tc.cfg)
			ios := mixedOps(tc.n)
			rts := make([]time.Duration, tc.n)
			var lasts []time.Duration
			base := 0
			var st FaultStats
			end, err := Drive(context.Background(), dev, at, &st, func(last time.Duration) ([]IO, []time.Duration, error) {
				lasts = append(lasts, last)
				if tc.stopAt > 0 && base == tc.stopAt {
					// A batch beside the error must not reach the device.
					return ios[base : base+1], rts[base : base+1], errStop
				}
				n := min(tc.batch, tc.n-base)
				win := rts[base : base+n]
				for k := range win {
					win[k] = tc.enc(base+k, last)
				}
				base += n
				return ios[base-n : base], win, nil
			})
			want, comps, wantLasts := driveReference(tc, at)

			// measured is how many IOs ended as response times; stopped is
			// the stream index at which it ended.
			measured, stopped, wantEnd := tc.n, tc.n, at
			switch {
			case tc.failAt > 0:
				var be *BatchError
				if !errors.As(err, &be) || be.Index != tc.failAt || be.IO != ios[tc.failAt] || !errors.Is(err, ErrDeviceGone) {
					t.Fatalf("err = %v, want a *BatchError at stream IO %d wrapping ErrDeviceGone", err, tc.failAt)
				}
				measured, stopped = tc.failAt-tc.failAt%tc.batch, tc.failAt
			case tc.stopAt > 0:
				if err != errStop {
					t.Fatalf("err = %v, want next's error unchanged", err)
				}
				measured, stopped = tc.stopAt, tc.stopAt
			case err != nil:
				t.Fatal(err)
			}
			if stopped > 0 {
				wantEnd = comps[stopped-1]
			}
			if end != wantEnd {
				t.Errorf("end = %v, want %v", end, wantEnd)
			}
			if mem.IOs != int64(stopped) {
				t.Errorf("the device serviced %d IOs, want %d", mem.IOs, stopped)
			}
			for i := 0; i < measured; i++ {
				if rts[i] != want[i] {
					t.Fatalf("rt[%d] = %v, want %v", i, rts[i], want[i])
				}
			}
			if calls := min(len(lasts), len(wantLasts)); calls < stopped/tc.batch {
				t.Fatalf("next was called %d times, want at least %d", len(lasts), stopped/tc.batch)
			} else if !slices.Equal(lasts[:calls], wantLasts[:calls]) {
				t.Errorf("next was given %v, want %v", lasts[:calls], wantLasts[:calls])
			}
			wantSt := FaultStats{}
			if tc.retried > 0 {
				wantSt = FaultStats{Faults: 1, Retries: 1}
				if rts[tc.retried] < RetryBackoff {
					t.Errorf("retried IO's rt %v misses its backoff", rts[tc.retried])
				}
			}
			if tc.failAt > 0 {
				wantSt = FaultStats{Faults: 1}
			}
			if st != wantSt {
				t.Errorf("stats = %+v, want %+v", st, wantSt)
			}
		})
	}
}
