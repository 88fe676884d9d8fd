package profile

import (
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
)

// table3Target is a Table 3 row from the paper, in milliseconds and
// multipliers, used both to report calibration drift and to assert the
// qualitative shape (who is fast, who is slow, where the cliffs are).
type table3Target struct {
	sr, rr, sw, rw float64 // ms
}

var paperTable3 = map[string]table3Target{
	"memoright":        {0.3, 0.4, 0.3, 5},
	"mtron":            {0.4, 0.5, 0.4, 9},
	"samsung":          {0.5, 0.5, 0.6, 18},
	"transcend-module": {1.2, 1.3, 1.7, 18},
	"transcend-mlc32":  {1.4, 3.0, 2.6, 233},
	"kingston-dthx":    {1.3, 1.5, 1.8, 270},
	"kingston-dti":     {1.9, 2.2, 2.9, 256},
}

const calibCapacity = 1 << 30 // scaled-down 1 GB devices keep tests fast

// newCalibrated builds a device at test scale and enforces the random state
// the methodology requires, returning the device and the virtual time at
// which the state enforcement finished (runs must start after it).
func newCalibrated(t testing.TB, key string) (device.Device, time.Duration) {
	t.Helper()
	p, err := ByKey(key)
	if err != nil {
		t.Fatal(err)
	}
	dev, err := p.BuildWithCapacity(calibCapacity)
	if err != nil {
		t.Fatal(err)
	}
	end, err := methodology.EnforceRandomState(dev, 42)
	if err != nil {
		t.Fatal(err)
	}
	return dev, end + 10*time.Second
}

func runBaseline(t testing.TB, dev device.Device, b core.Baseline, at time.Duration) *core.Run {
	t.Helper()
	d := core.StandardDefaults()
	// Random IOs roam half the device, as on the paper's full-size
	// devices, so the write buffer's locality window stays a small
	// fraction of the working set.
	d.RandomTarget = dev.Capacity() / 2
	d.IOCount = 1024
	if b == core.RW {
		d.IOCount = 3072
		d.IOIgnore = 512
	}
	p := b.Pattern(d)
	run, err := core.ExecutePattern(new(core.Scratch), dev, p, at)
	if err != nil {
		t.Fatal(err)
	}
	return run
}

// TestCalibrationBaselines reports measured vs paper SR/RR/SW/RW for the
// seven representative devices and asserts each lands within a factor-of-two
// band of the paper's value — the "shape fidelity" the reproduction targets.
func TestCalibrationBaselines(t *testing.T) {
	for key, want := range paperTable3 {
		key, want := key, want
		t.Run(key, func(t *testing.T) {
			t.Parallel()
			dev, at := newCalibrated(t, key)
			got := map[core.Baseline]float64{}
			for _, b := range core.Baselines {
				run := runBaseline(t, dev, b, at)
				at += run.Total + 5*time.Second
				got[b] = run.Summary.Mean * 1e3
			}
			check := func(name string, gotMS, wantMS float64) {
				t.Logf("%-4s measured %8.3f ms   paper %8.3f ms   ratio %.2f", name, gotMS, wantMS, gotMS/wantMS)
				if gotMS < wantMS/2.5 || gotMS > wantMS*2.5 {
					t.Errorf("%s: measured %.3f ms outside band of paper %.3f ms", name, gotMS, wantMS)
				}
			}
			check("SR", got[core.SR], want.sr)
			check("RR", got[core.RR], want.rr)
			check("SW", got[core.SW], want.sw)
			check("RW", got[core.RW], want.rw)
		})
	}
}
