package core

import (
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/profile"
)

// TestScratchRunAllocations pins what a run allocates on a warm scratch:
// its Run and RTs, a mix or parallel run's name, and the parallel run's
// process table. The IO batch, the pattern sources and their random
// generators come from the scratch, and on a RunState with a warm Series,
// reset after every run as a daemon worker resets it after every job, so do
// the RTs.
func TestScratchRunAllocations(t *testing.T) {
	dev := memDev()
	d := StandardDefaults()
	d.IOCount = 1024
	d.RandomTarget = 32 << 20
	rr, rw := RR.Pattern(d), RW.Pattern(d)
	rw.TargetOffset = 32 << 20
	var sc Scratch
	state := &RunState{Series: new(Series)}
	buffered := &state.Scratch(1)[0]
	for _, c := range []struct {
		name string
		want float64
		run  func() (*Run, error)
	}{
		{"RR", 2, func() (*Run, error) { return ExecutePattern(&sc, dev, rr, 0) }},
		{"RR/RW mix", 3, func() (*Run, error) { return ExecuteMix(&sc, dev, rr, rw, 4, 0) }},
		{"RR||16", 4, func() (*Run, error) { return ExecuteParallel(&sc, dev, rr, 16, 0) }},
		{"RR on a warm Series", 1, func() (*Run, error) {
			defer state.Series.Reset()
			return ExecutePattern(buffered, dev, rr, 0)
		}},
	} {
		if _, err := c.run(); err != nil { // warms the scratch
			t.Fatalf("%s: %v", c.name, err)
		}
		got := testing.AllocsPerRun(20, func() {
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
		})
		if got != c.want {
			t.Errorf("%s allocates %v times a run on a warm scratch, want %v", c.name, got, c.want)
		}
	}
}

// ioRecorder records every IO a device is handed.
type ioRecorder struct {
	device.Device
	ios []device.IO
}

func (r *ioRecorder) SubmitBatch(at time.Duration, ios []device.IO, done []time.Duration) error {
	r.ios = append(r.ios, ios...)
	return r.Device.SubmitBatch(at, ios, done)
}

// TestScratchReuseMatchesFreshScratch is the reuse oracle: a degree-16
// parallel RR, an RR/RW mix, an RR and an SW, one after the other on one
// scratch, hand the device the same IOs and measure the same response times
// as the same runs each on a fresh scratch. A generator that is not reseeded
// or a batch left at a previous run's length shows here.
func TestScratchReuseMatchesFreshScratch(t *testing.T) {
	const capacity = 64 << 20
	d := StandardDefaults()
	d.IOCount = 512
	d.RandomTarget = capacity / 2
	rw := RW.Pattern(d)
	rw.TargetOffset = capacity / 2
	sw := SW.Pattern(d)
	sw.TargetOffset = capacity / 2
	runs := []func(sc *Scratch, dev device.Device, at time.Duration) (*Run, error){
		func(sc *Scratch, dev device.Device, at time.Duration) (*Run, error) {
			return ExecuteParallel(sc, dev, RR.Pattern(d), 16, at)
		},
		func(sc *Scratch, dev device.Device, at time.Duration) (*Run, error) {
			return ExecuteMix(sc, dev, RR.Pattern(d), rw, 2, at)
		},
		func(sc *Scratch, dev device.Device, at time.Duration) (*Run, error) {
			return ExecutePattern(sc, dev, RR.Pattern(d), at)
		},
		func(sc *Scratch, dev device.Device, at time.Duration) (*Run, error) {
			return ExecutePattern(sc, dev, sw, at)
		},
	}
	play := func(scratch func() *Scratch) ([][]time.Duration, []device.IO) {
		dev, err := profile.BuildDevice("mtron", capacity)
		if err != nil {
			t.Fatal(err)
		}
		rec := &ioRecorder{Device: dev}
		var rts [][]time.Duration
		at := time.Duration(0)
		for i, run := range runs {
			r, err := run(scratch(), rec, at)
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			rts = append(rts, r.RTs)
			at += r.Total + time.Second
		}
		return rts, rec.ios
	}
	shared := new(Scratch)
	gotRTs, gotIOs := play(func() *Scratch { return shared })
	wantRTs, wantIOs := play(func() *Scratch { return new(Scratch) })
	if !reflect.DeepEqual(gotIOs, wantIOs) {
		t.Errorf("one scratch handed the device %d IOs, fresh scratches %d, and they differ", len(gotIOs), len(wantIOs))
	}
	for i := range wantRTs {
		if !reflect.DeepEqual(gotRTs[i], wantRTs[i]) {
			t.Errorf("run %d: response times on a reused scratch differ from a fresh scratch's", i)
		}
	}
}
