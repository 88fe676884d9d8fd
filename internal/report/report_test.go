package report

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/methodology"
	"uflip/internal/stats"
)

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "T", Headers: []string{"a", "bb"}}
	tbl.AddRow("x", 1.5)
	tbl.AddRow("longer", 2.0)
	out := tbl.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 5 { // title, header, separator, two rows
		t.Fatalf("table lines = %d:\n%s", len(lines), out)
	}
	if !strings.Contains(lines[1], "a") || !strings.Contains(lines[1], "bb") {
		t.Fatalf("header row %q", lines[1])
	}
	if !strings.Contains(out, "1.5") || !strings.Contains(out, "2") {
		t.Fatalf("float formatting:\n%s", out)
	}
	// Columns aligned: all data rows at least as wide as the header row.
	if len(lines[3]) < len(lines[1]) {
		t.Fatal("row shorter than header")
	}
}

// TestTableRenderMatchesFprintf holds Render to the layout it replaced: widths
// in bytes, cells padded with %-*s, which counts runes — so a "µs" cell pads
// one space short of its byte width — across more rows than one flush holds.
func TestTableRenderMatchesFprintf(t *testing.T) {
	tbl := &Table{Title: "durations", Headers: []string{"run", "rt", "n", "share", "even"}}
	for i := range 400 {
		tbl.AddRow(fmt.Sprintf("run-%d", i), (time.Duration(i*i) * time.Microsecond / 7).String(), int64(i)*1e6, float64(i)/3, i%2 == 0)
	}
	tbl.AddRow("µ", "ü", 1, 0.5, false)
	var want strings.Builder
	fmt.Fprintf(&want, "%s\n", tbl.Title)
	widths := make([]int, len(tbl.Headers))
	for i, h := range tbl.Headers {
		widths[i] = len(h)
	}
	for _, row := range tbl.rows() {
		for i, cell := range row {
			widths[i] = max(widths[i], len(cell))
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				want.WriteString("  ")
			}
			fmt.Fprintf(&want, "%-*s", widths[i], cell)
		}
		want.WriteByte('\n')
	}
	writeRow(tbl.Headers)
	sep := make([]string, len(widths))
	for i, w := range widths {
		sep[i] = strings.Repeat("-", w)
	}
	writeRow(sep)
	for _, row := range tbl.rows() {
		writeRow(row)
	}
	if got := tbl.String(); got != want.String() {
		t.Fatalf("Render differs from the %%-*s layout:\n got %q\nwant %q", got[:200], want.String()[:200])
	}
}

func TestPlotRender(t *testing.T) {
	p := &Plot{Title: "test", Width: 40, Height: 8, LogY: true}
	p.AddSeries("a", '*', []float64{0, 1, 2, 3}, []float64{0.1, 1, 10, 100})
	out := p.String()
	if !strings.Contains(out, "*") {
		t.Fatalf("no markers:\n%s", out)
	}
	if !strings.Contains(out, "test") || !strings.Contains(out, "*=a") {
		t.Fatalf("missing title/legend:\n%s", out)
	}
}

func TestPlotEmpty(t *testing.T) {
	p := &Plot{Title: "empty"}
	if !strings.Contains(p.String(), "no data") {
		t.Fatal("empty plot should say so")
	}
	// Log plot with only non-positive values is empty too.
	p2 := &Plot{LogY: true}
	p2.AddSeries("z", 'z', []float64{1}, []float64{0})
	if !strings.Contains(p2.String(), "no data") {
		t.Fatal("non-positive log data should be dropped")
	}
}

func TestPlotDurationSeries(t *testing.T) {
	p := &Plot{Height: 6, Width: 30}
	p.AddDurationSeries("rt", '.', []time.Duration{time.Millisecond, 2 * time.Millisecond})
	if !strings.Contains(p.String(), ".") {
		t.Fatal("duration series not plotted")
	}
}

// synthResults builds a Results set with known characteristics: baselines
// SR/RR/SW/RW = 1/1.2/1.5/20 ms, locality window 8 MB at 1.5 ms, partition
// cliff after 4, reverse 2x, in-place 3x, large strides 2x RW.
func synthResults() *methodology.Results {
	res := &methodology.Results{Device: "synth"}
	add := func(micro string, base core.Baseline, value int64, meanMS float64) {
		run := &core.Run{Summary: stats.Summary{N: 100, Mean: meanMS / 1e3}}
		res.Results = append(res.Results, methodology.Result{
			Exp: core.Experiment{Micro: micro, Base: base, Value: value},
			Run: run,
		})
	}
	add("Granularity", core.SR, 32768, 1)
	add("Granularity", core.RR, 32768, 1.2)
	add("Granularity", core.SW, 32768, 1.5)
	add("Granularity", core.RW, 32768, 20)
	ioSize := int64(32 * 1024)
	for exp := 0; exp <= 16; exp++ {
		ts := ioSize << exp
		cost := 1.5
		if ts > 8<<20 {
			cost = 20
		}
		add("Locality", core.RW, ts, cost)
	}
	for p := int64(1); p <= 256; p *= 2 {
		cost := 1.6
		if p > 4 {
			cost = 18.0
		}
		add("Partitioning", core.SW, p, cost)
	}
	add("Order", core.SW, 1, 1.5)
	add("Order", core.SW, -1, 3)
	add("Order", core.SW, 0, 4.5)
	for _, incr := range []int64{32, 64, 128, 256} {
		add("Order", core.SW, incr, 40)
	}
	for mult := int64(1); mult <= 256; mult *= 2 {
		cost := 20.0
		if mult >= 64 { // pause >= 6.4 ms tames RW
			cost = 2.0
		}
		add("Pause", core.RW, mult, cost)
	}
	return res
}

func TestCharacterize(t *testing.T) {
	c := Characterize(synthResults(), 32*1024)
	if c.SRms != 1 || c.RRms != 1.2 || c.SWms != 1.5 || c.RWms != 20 {
		t.Fatalf("baselines: %+v", c)
	}
	if c.LocalityMB != 8 {
		t.Errorf("locality = %d MB, want 8", c.LocalityMB)
	}
	if c.LocalityFactor < 0.9 || c.LocalityFactor > 1.2 {
		t.Errorf("locality factor = %.2f", c.LocalityFactor)
	}
	if c.Partitions != 4 {
		t.Errorf("partitions = %d, want 4", c.Partitions)
	}
	if c.ReverseFactor != 2 || c.InPlaceFactor != 3 {
		t.Errorf("order factors: rev=%.1f inplace=%.1f", c.ReverseFactor, c.InPlaceFactor)
	}
	if c.LargeIncrFactor != 2 {
		t.Errorf("large incr = %.1f, want 2", c.LargeIncrFactor)
	}
	if c.PauseEffectMS != 6.4 {
		t.Errorf("pause effect = %.1f ms, want 6.4", c.PauseEffectMS)
	}
}

func TestCharacterizeNoPauseEffect(t *testing.T) {
	res := synthResults()
	// Strip the Pause results: no effect detectable.
	var kept []methodology.Result
	for _, r := range res.Results {
		if r.Exp.Micro != "Pause" {
			kept = append(kept, r)
		}
	}
	res.Results = kept
	c := Characterize(res, 32*1024)
	if c.PauseEffectMS != 0 {
		t.Fatalf("pause effect = %v without pause data", c.PauseEffectMS)
	}
}

func TestCharacterTableRendering(t *testing.T) {
	c := Characterize(synthResults(), 32*1024)
	out := CharacterTable([]DeviceCharacter{c}).String()
	if !strings.Contains(out, "synth") {
		t.Fatalf("device missing:\n%s", out)
	}
	if !strings.Contains(out, "8 (=)") {
		t.Fatalf("locality cell missing:\n%s", out)
	}
	if !strings.Contains(out, "2x") {
		t.Fatalf("factor cell missing:\n%s", out)
	}
}

func TestPhaseTable(t *testing.T) {
	rep := &methodology.PhaseReport{
		Device: "synth",
		Baseline: map[core.Baseline]stats.PhaseAnalysis{
			core.RW: {StartUp: 125, Period: 16, Oscillates: true},
		},
		IOIgnore: map[core.Baseline]int{core.RW: 156},
		IOCount:  map[core.Baseline]int{core.RW: 5120},
	}
	out := PhaseTable(rep).String()
	if !strings.Contains(out, "RW") || !strings.Contains(out, "125") || !strings.Contains(out, "5120") {
		t.Fatalf("phase table:\n%s", out)
	}
}

func TestRunningAverageSeries(t *testing.T) {
	xs, ys := RunningAverageSeries([]time.Duration{2 * time.Millisecond, 4 * time.Millisecond})
	if len(xs) != 2 || xs[1] != 1 {
		t.Fatalf("xs = %v", xs)
	}
	if ys[0] != 2 || ys[1] != 3 {
		t.Fatalf("ys = %v (ms)", ys)
	}
}
