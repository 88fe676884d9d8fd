package paperexp

import (
	"context"
	"testing"

	"uflip/internal/core"
	"uflip/internal/methodology"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Capacity = 256 << 20
	cfg.IOCount = 256
	return cfg
}

func TestFigureTraces(t *testing.T) {
	cfg := quickCfg()
	dev, at, err := Prepare("mtron", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr, err := Figure3(dev, at, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Run.RTs) != 4096 {
		t.Fatalf("Figure 3 trace = %d IOs", len(tr.Run.RTs))
	}
	if !tr.Analysis.Oscillates {
		t.Error("Mtron RW trace does not oscillate")
	}
	if tr.Analysis.StartUp == 0 {
		t.Error("Mtron RW trace has no start-up phase")
	}

	dti, at2, err := Prepare("kingston-dti", cfg)
	if err != nil {
		t.Fatal(err)
	}
	tr4, err := Figure4(dti, at2, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tr4.Analysis.StartUp != 0 {
		t.Errorf("DTI SW start-up = %d, paper shows none", tr4.Analysis.StartUp)
	}
	if tr4.Analysis.Period < 100 || tr4.Analysis.Period > 160 {
		t.Errorf("DTI SW period = %d, paper shows ~128", tr4.Analysis.Period)
	}
}

// runPlan runs the named micro-benchmarks on key through RunBenchmark, the
// pipeline the uflip command runs.
func runPlan(t *testing.T, key string, cfg Config, micros ...string) *methodology.Results {
	t.Helper()
	out, err := RunBenchmark(context.Background(), key, cfg, BenchmarkRequest{Micros: micros})
	if err != nil {
		t.Fatal(err)
	}
	return out.Results
}

func TestGranularityCurvesShape(t *testing.T) {
	curves := Curves(runPlan(t, "kingston-dti", quickCfg(), "Granularity"), "Granularity")
	for _, b := range core.Baselines {
		if len(curves[b.String()]) < 10 {
			t.Fatalf("%s has %d granularity points", b, len(curves[b.String()]))
		}
	}
	// Figure 7 shape: RW flat and far above everything else at 32 KB.
	at32 := func(b core.Baseline) float64 {
		for _, pt := range curves[b.String()] {
			if pt.X == 32<<10 {
				return pt.Y
			}
		}
		t.Fatalf("%s missing the 32 KB point", b)
		return 0
	}
	if at32(core.RW) < 10*at32(core.SW) {
		t.Errorf("DTI RW (%.1f ms) not far above SW (%.1f ms) at 32 KB", at32(core.RW), at32(core.SW))
	}
	// Reads grow with IO size (bus-linear).
	sr := curves[core.SR.String()]
	if sr[0].Y >= sr[len(sr)-1].Y {
		t.Error("SR cost does not grow with IO size")
	}
}

func TestLocalityCurveShape(t *testing.T) {
	pts, err := Figure8(runPlan(t, "samsung", quickCfg(), "Granularity", "Locality"))
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) < 8 {
		t.Fatalf("locality curve has %d points", len(pts))
	}
	// Figure 8 shape: the ratio grows with the target size.
	first, last := pts[0].Y, pts[len(pts)-1].Y
	if last < 3*first {
		t.Errorf("RW/SW ratio flat: %.2f -> %.2f", first, last)
	}
}

func TestStateAnomalyMagnitude(t *testing.T) {
	cfg := quickCfg()
	fresh, used, err := StateAnomaly("samsung", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if used < 3*fresh {
		t.Fatalf("state anomaly too small: %.2f -> %.2f ms", fresh, used)
	}
}

func TestSweepSeriesMix(t *testing.T) {
	series := Curves(runPlan(t, "transcend-module", quickCfg(), "Mix"), "Mix")
	if len(series) != 6 {
		t.Fatalf("mix sweep produced %d series, want 6 pairs", len(series))
	}
}
