// Command uflip-report regenerates the tables and figures of the uFLIP
// paper's evaluation (Section 5) from live simulator runs, rendering them as
// text tables and ASCII plots. Table 3, Figures 6–8 and the Section 5.2
// sweeps run their micro-benchmarks through paperexp.RunBenchmark, the
// pipeline the uflip command runs, so a Table 3 row equals the means in
// uflip's CSV for the same device, capacity and seed.
//
// Examples:
//
//	uflip-report -exp table2           # the device list
//	uflip-report -exp table3           # the result summary (slow: 7 devices)
//	uflip-report -exp fig3             # Mtron random-write trace
//	uflip-report -exp fig8             # locality curves
//	uflip-report -exp all
package main

import (
	"context"
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/report"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "uflip-report:", err)
		os.Exit(1)
	}
}

var experiments = []string{
	"table1", "table2", "table3",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"alignment", "mix", "parallelism", "state",
}

func run() error {
	var (
		exp      = flag.String("exp", "", "experiment to regenerate: "+strings.Join(experiments, ", ")+" or all")
		capacity = flag.Int64("capacity", 512<<20, "simulated device capacity")
		seed     = flag.Int64("seed", 42, "random seed")
	)
	flag.Parse()
	if *exp == "" {
		return fmt.Errorf("pass -exp <name>; known: %s, all", strings.Join(experiments, ", "))
	}
	cfg := paperexp.DefaultConfig()
	cfg.Capacity = *capacity
	cfg.Seed = *seed

	selected := []string{*exp}
	if *exp == "all" {
		selected = experiments
	}
	for _, name := range selected {
		if err := render(name, cfg); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Println()
	}
	return nil
}

func render(name string, cfg paperexp.Config) error {
	switch name {
	case "table1":
		return table1()
	case "table2":
		return table2()
	case "table3":
		return table3(cfg)
	case "fig3":
		return traceFigure("Figure 3: start-up and running phase, Mtron RW", "mtron", cfg, paperexp.Figure3)
	case "fig4":
		return traceFigure("Figure 4: running phase, Kingston DTI SW", "kingston-dti", cfg, paperexp.Figure4)
	case "fig5":
		return fig5(cfg)
	case "fig6":
		return granFigure("Figure 6: granularity, Memoright", "memoright", cfg)
	case "fig7":
		return granFigure("Figure 7: granularity, Kingston DTI (SR, RR, SW)", "kingston-dti", cfg)
	case "fig8":
		return fig8(cfg)
	case "alignment":
		return sweepFigure("Alignment (Samsung): response time vs IOShift", "samsung", "Alignment", cfg)
	case "mix":
		return sweepFigure("Mix (Memoright): response time vs Ratio", "memoright", "Mix", cfg)
	case "parallelism":
		return sweepFigure("Parallelism (Memoright): response time vs degree", "memoright", "Parallelism", cfg)
	case "state":
		return stateAnomaly(cfg)
	default:
		return fmt.Errorf("unknown experiment (known: %s)", strings.Join(experiments, ", "))
	}
}

// table1 prints the micro-benchmark definitions.
func table1() error {
	t := &report.Table{
		Title:   "Table 1: the nine uFLIP micro-benchmarks",
		Headers: []string{"Micro-benchmark", "Varying parameter", "Experiments", "Description"},
	}
	d := core.StandardDefaults()
	for _, mb := range core.AllMicrobenchmarks(d, 32<<30) {
		t.AddRow(mb.Name, mb.Param, len(mb.Experiments), mb.Description)
	}
	return t.Render(os.Stdout)
}

// table2 prints the device list.
func table2() error {
	t := &report.Table{
		Title:   "Table 2: selected flash devices",
		Headers: []string{"", "Brand", "Model", "Type", "Size", "Price", "FTL", "Cell", "Chips"},
	}
	for _, p := range profile.All() {
		arrow := ""
		if p.Representative {
			arrow = "->"
		}
		t.AddRow(arrow, p.Brand, p.Model, p.Type,
			fmt.Sprintf("%d GB", p.CapacityBytes>>30), fmt.Sprintf("$%d", p.PriceUSD),
			p.Kind.String(), p.Cell.String(), p.Chips)
	}
	return t.Render(os.Stdout)
}

// runPlan runs the named micro-benchmarks on key through the pipeline the
// uflip command runs.
func runPlan(key string, cfg paperexp.Config, micros ...string) (*methodology.Results, error) {
	out, err := paperexp.RunBenchmark(context.Background(), key, cfg, paperexp.BenchmarkRequest{Micros: micros})
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

func table3(cfg paperexp.Config) error {
	var chars []report.DeviceCharacter
	for _, p := range profile.Representatives() {
		fmt.Fprintf(os.Stderr, "measuring %s...\n", p.Key)
		res, err := runPlan(p.Key, cfg, paperexp.Table3Micros...)
		if err != nil {
			return err
		}
		chars = append(chars, report.Characterize(res, core.StandardDefaults().IOSize))
	}
	return report.CharacterTable(chars).Render(os.Stdout)
}

func traceFigure(title, key string, cfg paperexp.Config, f func(dev device.Device, at time.Duration, cfg paperexp.Config) (*paperexp.TraceResult, error)) error {
	dev, at, err := paperexp.Prepare(key, cfg)
	if err != nil {
		return err
	}
	tr, err := f(dev, at, cfg)
	if err != nil {
		return err
	}
	p := &report.Plot{Title: title, XLabel: "IO number", YLabel: "response time (ms)", LogY: true, Height: 16}
	p.AddDurationSeries("rt", '.', tr.Run.RTs[:min(len(tr.Run.RTs), 1024)])
	xs, ys := report.RunningAverageSeries(tr.Run.RTs[:min(len(tr.Run.RTs), 1024)])
	p.AddSeries("running avg", '+', xs, ys)
	if err := p.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("two-phase analysis: start-up=%d IOs, period=%d, cheap=%.2f ms, expensive=%.2f ms\n",
		tr.Analysis.StartUp, tr.Analysis.Period, tr.Analysis.CheapLevel*1e3, tr.Analysis.ExpensiveLevel*1e3)
	return nil
}

func fig5(cfg paperexp.Config) error {
	dev, at, err := paperexp.Prepare("mtron", cfg)
	if err != nil {
		return err
	}
	rep, err := paperexp.Figure5(dev, at, cfg)
	if err != nil {
		return err
	}
	p := &report.Plot{Title: "Figure 5: pause determination, Mtron (SR, RW batch, SR)", XLabel: "IO number", YLabel: "response time (ms)", LogY: true, Height: 16}
	p.AddDurationSeries("rt", '.', rep.Trace)
	if err := p.Render(os.Stdout); err != nil {
		return err
	}
	fmt.Printf("lingering effect: %d reads (%v); recommended pause %v\n",
		rep.LingerIOs, rep.LingerTime.Round(time.Millisecond), rep.RecommendedPause)
	return nil
}

func granFigure(title, key string, cfg paperexp.Config) error {
	res, err := runPlan(key, cfg, "Granularity")
	if err != nil {
		return err
	}
	curves := paperexp.Curves(res, "Granularity")
	p := &report.Plot{Title: title, XLabel: "IO size (KB)", YLabel: "response time (ms)", LogY: true, Height: 16}
	markers := map[core.Baseline]byte{core.SR: 's', core.RR: 'r', core.SW: 'S', core.RW: 'R'}
	for _, b := range core.Baselines {
		pts := curves[b.String()]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for i, pt := range pts {
			xs[i], ys[i] = pt.X/1024, pt.Y
		}
		p.AddSeries(b.String(), markers[b], xs, ys)
	}
	return p.Render(os.Stdout)
}

func fig8(cfg paperexp.Config) error {
	p := &report.Plot{Title: "Figure 8: locality — RW cost relative to SW vs TargetSize (MB)", XLabel: "log2(target MB)", YLabel: "RW/SW", Height: 16}
	markers := map[string]byte{"samsung": 's', "memoright": 'm', "mtron": 't'}
	for _, key := range []string{"samsung", "memoright", "mtron"} {
		res, err := runPlan(key, cfg, "Granularity", "Locality")
		if err != nil {
			return err
		}
		pts, err := paperexp.Figure8(res)
		if err != nil {
			return err
		}
		var xs, ys []float64
		for _, pt := range pts {
			mb := pt.X / (1 << 20)
			if mb < 1 {
				continue
			}
			xs = append(xs, log2(mb))
			ys = append(ys, pt.Y)
		}
		p.AddSeries(key, markers[key], xs, ys)
	}
	return p.Render(os.Stdout)
}

func sweepFigure(title, key, micro string, cfg paperexp.Config) error {
	res, err := runPlan(key, cfg, micro)
	if err != nil {
		return err
	}
	series := paperexp.Curves(res, micro)
	t := &report.Table{Title: title, Headers: []string{"series", "param", "mean(ms)"}}
	for _, label := range slices.Sorted(maps.Keys(series)) {
		for _, pt := range series[label] {
			t.AddRow(label, pt.X, pt.Y)
		}
	}
	return t.Render(os.Stdout)
}

func stateAnomaly(cfg paperexp.Config) error {
	fresh, used, err := paperexp.StateAnomaly("samsung", cfg)
	if err != nil {
		return err
	}
	fmt.Printf("Section 4.1 state anomaly (Samsung): RW out of the box %.2f ms, after writing the whole device %.2f ms (%.1fx)\n",
		fresh, used, used/fresh)
	return nil
}

func log2(x float64) float64 {
	n := 0.0
	for x >= 2 {
		x /= 2
		n++
	}
	return n
}
