package paperexp

import (
	"context"
	"io"
	"testing"

	"uflip/internal/core"
	"uflip/internal/methodology"
	"uflip/internal/stats"
)

func quickCfg() Config {
	cfg := DefaultConfig()
	cfg.Capacity = 256 << 20
	cfg.IOCount = 256
	return cfg
}

// TestEveryExperimentRunsAtItsSpan: Span is the least capacity an experiment
// runs on. Each renders at its span (at 4 KiB, the granule of a capacity, when
// it builds no device), and one with a span fails 4 KiB below it.
func TestEveryExperimentRunsAtItsSpan(t *testing.T) {
	for _, name := range Experiments {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			span := Span(name)
			cfg.Capacity = max(span, 4096)
			if err := Render(context.Background(), io.Discard, name, cfg, 2); err != nil {
				t.Errorf("at its span of %d bytes: %v", cfg.Capacity, err)
			}
			if span == 0 {
				return
			}
			cfg.Capacity = span - 4096
			if err := Render(context.Background(), io.Discard, name, cfg, 2); err == nil {
				t.Errorf("renders at %d bytes, below its span of %d", cfg.Capacity, span)
			}
		})
	}
}

func TestFigureTraces(t *testing.T) {
	cfg := quickCfg()
	run, err := baselineTrace("mtron", cfg, core.RW, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.RTs) != 4096 {
		t.Fatalf("Figure 3 trace = %d IOs", len(run.RTs))
	}
	a := stats.AnalyzePhases(run.RTs)
	if !a.Oscillates {
		t.Error("Mtron RW trace does not oscillate")
	}
	if a.StartUp == 0 {
		t.Error("Mtron RW trace has no start-up phase")
	}

	run4, err := baselineTrace("kingston-dti", cfg, core.SW, 2048)
	if err != nil {
		t.Fatal(err)
	}
	a4 := stats.AnalyzePhases(run4.RTs)
	if a4.StartUp != 0 {
		t.Errorf("DTI SW start-up = %d, paper shows none", a4.StartUp)
	}
	if a4.Period < 100 || a4.Period > 160 {
		t.Errorf("DTI SW period = %d, paper shows ~128", a4.Period)
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
	curves := curves(runPlan(t, "kingston-dti", quickCfg(), "Granularity"), "Granularity")
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
	pts, err := figure8(runPlan(t, "samsung", quickCfg(), "Granularity", "Locality"))
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
	fresh, used, err := stateAnomaly("samsung", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if used < 3*fresh {
		t.Fatalf("state anomaly too small: %.2f -> %.2f ms", fresh, used)
	}
}

func TestSweepSeriesMix(t *testing.T) {
	series := curves(runPlan(t, "transcend-module", quickCfg(), "Mix"), "Mix")
	if len(series) != 6 {
		t.Fatalf("mix sweep produced %d series, want 6 pairs", len(series))
	}
}
