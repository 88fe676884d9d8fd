package paperexp

import (
	"context"
	"fmt"
	"io"
	"maps"
	"math/bits"
	"slices"
	"strings"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/report"
)

// Experiments names the artifacts of the paper's evaluation that Render
// regenerates, in the order a paper job of "all" renders them.
var Experiments = []string{
	"table1", "table2", "table3",
	"fig3", "fig4", "fig5", "fig6", "fig7", "fig8",
	"alignment", "mix", "parallelism", "state",
}

// figure4IOs is the length of Figure 4's sequential-write trace.
const figure4IOs = 2048

// Span is the least capacity the named experiment runs on, what it writes
// sequentially from offset 0: Figure 4's trace, or the DefaultConfig().IOCount
// IOs of a plan's sequential baselines (RunBenchmark refuses a smaller device).
func Span(name string) int64 {
	ios := 0
	switch name {
	case "fig4":
		ios = figure4IOs
	case "table3", "fig6", "fig7", "fig8", "alignment", "mix", "parallelism":
		ios = DefaultConfig().IOCount
	}
	return span(ios)
}

// span is the least capacity a run of ios IOs of the standard size takes: a
// sequential baseline writes them from offset 0.
func span(ios int) int64 { return int64(ios) * core.StandardDefaults().IOSize }

// CheckSpan refuses the device spec built at capacity bytes (per member of an
// array) unless it resolves and holds what a plan of ios IOs writes.
func CheckSpan(spec string, capacity int64, ios int) error {
	have, err := profile.Capacity(spec, capacity)
	if need := span(ios); err == nil && have < need {
		err = fmt.Errorf("%s holds %d bytes, below the %d a plan of %d IOs of %d bytes spans", spec, have, need, ios, core.StandardDefaults().IOSize)
	}
	return err
}

// Render regenerates one of the Experiments from live simulator runs and
// writes it to w as a text table or an ASCII plot. The experiments that run a
// plan run it through RunBenchmark on workers engine workers; the text is
// byte-identical for any worker count.
func Render(ctx context.Context, w io.Writer, name string, cfg Config, workers int) error {
	switch name {
	case "table1":
		return table1(w)
	case "table2":
		return table2(w)
	case "table3":
		return table3(ctx, w, cfg, workers)
	case "fig3":
		return traceFigure(w, "Figure 3: start-up and running phase, Mtron RW", "mtron", cfg, Figure3)
	case "fig4":
		return traceFigure(w, "Figure 4: running phase, Kingston DTI SW", "kingston-dti", cfg, Figure4)
	case "fig5":
		return fig5(w, cfg)
	case "fig6":
		return granFigure(ctx, w, cfg, workers, "Figure 6: granularity, Memoright", "memoright")
	case "fig7":
		return granFigure(ctx, w, cfg, workers, "Figure 7: granularity, Kingston DTI (SR, RR, SW)", "kingston-dti")
	case "fig8":
		return fig8(ctx, w, cfg, workers)
	case "alignment":
		return sweepTable(ctx, w, cfg, workers, "Alignment (Samsung): response time vs IOShift", "samsung", "Alignment")
	case "mix":
		return sweepTable(ctx, w, cfg, workers, "Mix (Memoright): response time vs Ratio", "memoright", "Mix")
	case "parallelism":
		return sweepTable(ctx, w, cfg, workers, "Parallelism (Memoright): response time vs degree", "memoright", "Parallelism")
	case "state":
		fresh, used, err := StateAnomaly("samsung", cfg)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "Section 4.1 state anomaly (Samsung): RW out of the box %.2f ms, after writing the whole device %.2f ms (%.1fx)\n",
			fresh, used, used/fresh)
		return err
	default:
		return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(Experiments, ", "))
	}
}

// plan runs the named micro-benchmarks on a device spec through RunBenchmark.
func plan(ctx context.Context, cfg Config, workers int, key string, micros ...string) (*methodology.Results, error) {
	out, err := RunBenchmark(ctx, key, cfg, BenchmarkRequest{Micros: micros, Workers: workers})
	if err != nil {
		return nil, err
	}
	return out.Results, nil
}

// table1 is the list of micro-benchmark definitions.
func table1(w io.Writer) error {
	t := &report.Table{
		Title:   "Table 1: the nine uFLIP micro-benchmarks",
		Headers: []string{"Micro-benchmark", "Varying parameter", "Experiments", "Description"},
	}
	d := core.StandardDefaults()
	for _, mb := range core.AllMicrobenchmarks(d, 32<<30) {
		t.AddRow(mb.Name, mb.Param, len(mb.Experiments), mb.Description)
	}
	return t.Render(w)
}

// table2 is the device list.
func table2(w io.Writer) error {
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
	return t.Render(w)
}

// table3 characterizes each representative device from a plan of
// Table3Micros.
func table3(ctx context.Context, w io.Writer, cfg Config, workers int) error {
	var chars []report.DeviceCharacter
	for _, p := range profile.Representatives() {
		res, err := plan(ctx, cfg, workers, p.Key, Table3Micros...)
		if err != nil {
			return err
		}
		chars = append(chars, report.Characterize(res, core.StandardDefaults().IOSize))
	}
	return report.CharacterTable(chars).Render(w)
}

func traceFigure(w io.Writer, title, key string, cfg Config, f func(dev device.Device, at time.Duration, cfg Config) (*TraceResult, error)) error {
	dev, at, err := Prepare(key, cfg)
	if err != nil {
		return err
	}
	tr, err := f(dev, at, cfg)
	if err != nil {
		return err
	}
	rts := tr.Run.RTs[:min(len(tr.Run.RTs), 1024)]
	p := &report.Plot{Title: title, XLabel: "IO number", YLabel: "response time (ms)", LogY: true, Height: 16}
	p.AddDurationSeries("rt", '.', rts)
	xs, ys := report.RunningAverageSeries(rts)
	p.AddSeries("running avg", '+', xs, ys)
	if err := p.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "two-phase analysis: start-up=%d IOs, period=%d, cheap=%.2f ms, expensive=%.2f ms\n",
		tr.Analysis.StartUp, tr.Analysis.Period, tr.Analysis.CheapLevel*1e3, tr.Analysis.ExpensiveLevel*1e3)
	return err
}

func fig5(w io.Writer, cfg Config) error {
	dev, at, err := Prepare("mtron", cfg)
	if err != nil {
		return err
	}
	rep, err := Figure5(dev, at, cfg)
	if err != nil {
		return err
	}
	p := &report.Plot{Title: "Figure 5: pause determination, Mtron (SR, RW batch, SR)", XLabel: "IO number", YLabel: "response time (ms)", LogY: true, Height: 16}
	p.AddDurationSeries("rt", '.', rep.Trace)
	if err := p.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "lingering effect: %d reads (%v); recommended pause %v\n",
		rep.LingerIOs, rep.LingerTime.Round(time.Millisecond), rep.RecommendedPause)
	return err
}

func granFigure(ctx context.Context, w io.Writer, cfg Config, workers int, title, key string) error {
	res, err := plan(ctx, cfg, workers, key, "Granularity")
	if err != nil {
		return err
	}
	curves := Curves(res, "Granularity")
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
	return p.Render(w)
}

func fig8(ctx context.Context, w io.Writer, cfg Config, workers int) error {
	p := &report.Plot{Title: "Figure 8: locality — RW cost relative to SW vs TargetSize (MB)", XLabel: "log2(target MB)", YLabel: "RW/SW", Height: 16}
	markers := map[string]byte{"samsung": 's', "memoright": 'm', "mtron": 't'}
	for _, key := range []string{"samsung", "memoright", "mtron"} {
		res, err := plan(ctx, cfg, workers, key, "Granularity", "Locality")
		if err != nil {
			return err
		}
		pts, err := Figure8(res)
		if err != nil {
			return err
		}
		var xs, ys []float64
		for _, pt := range pts {
			mb := pt.X / (1 << 20)
			if mb < 1 {
				continue
			}
			xs = append(xs, float64(bits.Len64(uint64(mb))-1)) // log2, rounded down
			ys = append(ys, pt.Y)
		}
		p.AddSeries(key, markers[key], xs, ys)
	}
	return p.Render(w)
}

func sweepTable(ctx context.Context, w io.Writer, cfg Config, workers int, title, key, micro string) error {
	res, err := plan(ctx, cfg, workers, key, micro)
	if err != nil {
		return err
	}
	series := Curves(res, micro)
	t := &report.Table{Title: title, Headers: []string{"series", "param", "mean(ms)"}}
	for _, label := range slices.Sorted(maps.Keys(series)) {
		for _, pt := range series[label] {
			t.AddRow(label, pt.X, pt.Y)
		}
	}
	return t.Render(w)
}
