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
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/report"
	"uflip/internal/stats"
)

// experiment is one artifact of the paper's evaluation: its name, the least
// capacity it runs on (0 if it builds no device) and how it renders.
type experiment struct {
	name   string
	span   int64
	render renderFunc
}

// renderFunc writes an artifact to w; one that runs a plan runs it through
// RunBenchmark on workers engine workers.
type renderFunc func(ctx context.Context, w io.Writer, cfg Config, workers int) error

// experiments is the paper's evaluation, in the order a paper job of "all"
// renders it.
var experiments = []experiment{
	{"table1", 0, table1},
	{"table2", 0, table2},
	{"table3", planSpan, table3},
	traceFigure("fig3", "Figure 3: start-up and running phase, Mtron RW", "mtron", core.RW, 4096),
	traceFigure("fig4", "Figure 4: running phase, Kingston DTI SW", "kingston-dti", core.SW, 2048),
	{"fig5", probeSpan, fig5},
	{"fig6", planSpan, granFigure("Figure 6: granularity, Memoright", "memoright")},
	{"fig7", planSpan, granFigure("Figure 7: granularity, Kingston DTI (SR, RR, SW)", "kingston-dti")},
	{"fig8", planSpan, fig8},
	{"alignment", planSpan, sweepTable("Alignment (Samsung): response time vs IOShift", "samsung", "Alignment")},
	{"mix", planSpan, sweepTable("Mix (Memoright): response time vs Ratio", "memoright", "Mix")},
	{"parallelism", planSpan, sweepTable("Parallelism (Memoright): response time vs degree", "memoright", "Parallelism")},
	{"state", probeSpan, state},
}

// planSpan is the least capacity of an artifact that runs a plan, whose
// sequential baselines write DefaultConfig().IOCount IOs from offset 0;
// probeSpan that of a probe writing randomly on half the capacity
// (core.RandomTargetFor), which must hold one IO.
var planSpan, probeSpan = span(DefaultConfig().IOCount), span(2)

// Experiments names the artifacts of the paper's evaluation that Render
// regenerates, in the order a paper job of "all" renders them.
var Experiments = func() []string {
	names := make([]string, len(experiments))
	for i, e := range experiments {
		names[i] = e.name
	}
	return names
}()

// Span is the least capacity the named experiment runs on: 0 for an
// experiment that builds no device (or an unknown name).
func Span(name string) int64 {
	if i := slices.Index(Experiments, name); i >= 0 {
		return experiments[i].span
	}
	return 0
}

// span is the least capacity a run of ios IOs of the standard size takes: a
// sequential baseline writes them from offset 0.
func span(ios int) int64 { return int64(ios) * core.StandardDefaults().IOSize }

// CheckSpan refuses the device spec built at capacity bytes (per member of an
// array) unless it resolves and runs the four baselines of ios IOs split among
// degree processes (core.Experiment.Check); at degree 1, a plan's probes.
func CheckSpan(spec string, capacity int64, ios, degree int) error {
	have, err := profile.Capacity(spec, capacity)
	if err != nil {
		return err
	}
	exps := baselines(Config{IOCount: ios}.defaults(have), degree)
	for i := range exps {
		if err := exps[i].Check(have); err != nil {
			return fmt.Errorf("%s (%d bytes) cannot run %s at %d IOs: %w", spec, have, exps[i].Base, ios, err)
		}
	}
	return nil
}

// Render regenerates one of the Experiments from live simulator runs and
// writes it to w as a text table or an ASCII plot. The text is byte-identical
// for any worker count.
func Render(ctx context.Context, w io.Writer, name string, cfg Config, workers int) error {
	i := slices.Index(Experiments, name)
	if i < 0 {
		return fmt.Errorf("unknown experiment %q (known: %s)", name, strings.Join(Experiments, ", "))
	}
	return experiments[i].render(ctx, w, cfg, workers)
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
func table1(_ context.Context, w io.Writer, _ Config, _ int) error {
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
func table2(_ context.Context, w io.Writer, _ Config, _ int) error {
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

// traceFigure is the artifact named name: baseline b's response-time trace
// over ios IOs on the prepared device key (Figure 3 shows the Mtron RW trace:
// ~125 cheap IOs then oscillation; Figure 4 the Kingston DTI SW one: no
// start-up, period ~128 IOs), with its two-phase analysis. A sequential trace
// writes its ios IOs from offset 0.
func traceFigure(name, title, key string, b core.Baseline, ios int) experiment {
	need := probeSpan
	if b.LBA() == core.Sequential {
		need = span(ios)
	}
	return experiment{name, need, func(_ context.Context, w io.Writer, cfg Config, _ int) error {
		run, err := baselineTrace(key, cfg, b, ios)
		if err != nil {
			return err
		}
		a := stats.AnalyzePhases(run.RTs)
		rts := run.RTs[:min(len(run.RTs), 1024)]
		p := &report.Plot{Title: title, XLabel: "IO number", YLabel: "response time (ms)", LogY: true, Height: 16}
		p.AddDurationSeries("rt", '.', rts)
		xs, ys := report.RunningAverageSeries(rts)
		p.AddSeries("running avg", '+', xs, ys)
		if err := p.Render(w); err != nil {
			return err
		}
		_, err = fmt.Fprintf(w, "two-phase analysis: start-up=%d IOs, period=%d, cheap=%.2f ms, expensive=%.2f ms\n",
			a.StartUp, a.Period, a.CheapLevel*1e3, a.ExpensiveLevel*1e3)
		return err
	}}
}

// baselineTrace prepares the device key and runs baseline b on it for ios
// IOs.
func baselineTrace(key string, cfg Config, b core.Baseline, ios int) (*core.Run, error) {
	dev, at, err := Prepare(key, cfg)
	if err != nil {
		return nil, err
	}
	p := b.Pattern(cfg.defaults(dev.Capacity()))
	p.IOCount = ios
	if p.LBA == core.Sequential {
		p.TargetSize = int64(ios) * p.IOSize
	}
	return core.ExecutePattern(new(core.Scratch), dev, p, at)
}

// fig5 runs the pause-determination experiment (SR, RW batch, SR) on the
// prepared Mtron and plots the methodology's trace.
func fig5(_ context.Context, w io.Writer, cfg Config, _ int) error {
	dev, at, err := Prepare("mtron", cfg)
	if err != nil {
		return err
	}
	rep, err := methodology.MeasurePause(dev, cfg.defaults(dev.Capacity()), at)
	if err != nil {
		return err
	}
	p := &report.Plot{Title: "Figure 5: pause determination, Mtron (SR, RW batch, SR)", XLabel: "IO number", YLabel: "response time (ms)", LogY: true, Height: 16}
	p.AddDurationSeries("rt", '.', rep.Trace())
	if err := p.Render(w); err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "lingering effect: %d reads (%v); recommended pause %v\n",
		rep.LingerIOs, rep.LingerTime.Round(time.Millisecond), rep.RecommendedPause)
	return err
}

// point is one sample of a parameter sweep.
type point struct {
	X float64 // the experiment's parameter value, in its own unit
	Y float64 // response time in ms, or a ratio for relative figures
}

// curves is the view of a plan's results that the figures and sweeps plot:
// for one micro-benchmark, the mean response time (ms) per parameter value,
// one series per label — the baseline, or baseline/partner for a Mix
// experiment — each in the micro-benchmark's order.
func curves(res *methodology.Results, micro string) map[string][]point {
	out := make(map[string][]point)
	for _, r := range res.Results {
		e := &r.Exp
		if e.Micro != micro {
			continue
		}
		label := e.Base.String()
		if e.MixWith != nil {
			label += "/" + e.MixWith.Name
		}
		out[label] = append(out[label], point{X: float64(e.Value), Y: r.Run.Summary.Mean * 1e3})
	}
	return out
}

// granFigure plots the Granularity curves of a plan on the device key
// (Figures 6 and 7).
func granFigure(title, key string) renderFunc {
	return func(ctx context.Context, w io.Writer, cfg Config, workers int) error {
		res, err := plan(ctx, cfg, workers, key, "Granularity")
		if err != nil {
			return err
		}
		series := curves(res, "Granularity")
		p := &report.Plot{Title: title, XLabel: "IO size (KB)", YLabel: "response time (ms)", LogY: true, Height: 16}
		markers := map[core.Baseline]byte{core.SR: 's', core.RR: 'r', core.SW: 'S', core.RW: 'R'}
		for _, b := range core.Baselines {
			pts := series[b.String()]
			xs := make([]float64, len(pts))
			ys := make([]float64, len(pts))
			for i, pt := range pts {
				xs[i], ys[i] = pt.X/1024, pt.Y
			}
			p.AddSeries(b.String(), markers[b], xs, ys)
		}
		return p.Render(w)
	}
}

// figure8 is one device's Figure 8 series: random-write cost relative to
// sequential writes as the target grows, X the target size in bytes. It reads
// a plan holding the Locality micro-benchmark and, for the reference, the
// Granularity SW run at the default IO size.
func figure8(res *methodology.Results) ([]point, error) {
	sw := res.Find("Granularity", core.SW, core.StandardDefaults().IOSize)
	if sw == nil || sw.Run.Summary.Mean <= 0 {
		return nil, fmt.Errorf("paperexp: no SW reference for %s", res.Device)
	}
	pts := curves(res, "Locality")["RW"]
	for i := range pts {
		pts[i].Y /= sw.Run.Summary.Mean * 1e3
	}
	return pts, nil
}

func fig8(ctx context.Context, w io.Writer, cfg Config, workers int) error {
	p := &report.Plot{Title: "Figure 8: locality — RW cost relative to SW vs TargetSize (MB)", XLabel: "log2(target MB)", YLabel: "RW/SW", Height: 16}
	markers := map[string]byte{"samsung": 's', "memoright": 'm', "mtron": 't'}
	for _, key := range []string{"samsung", "memoright", "mtron"} {
		res, err := plan(ctx, cfg, workers, key, "Granularity", "Locality")
		if err != nil {
			return err
		}
		pts, err := figure8(res)
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

// sweepTable tabulates the curves of a plan of micro on the device key (the
// Section 5.2 results).
func sweepTable(title, key, micro string) renderFunc {
	return func(ctx context.Context, w io.Writer, cfg Config, workers int) error {
		res, err := plan(ctx, cfg, workers, key, micro)
		if err != nil {
			return err
		}
		series := curves(res, micro)
		t := &report.Table{Title: title, Headers: []string{"series", "param", "mean(ms)"}}
		for _, label := range slices.Sorted(maps.Keys(series)) {
			for _, pt := range series[label] {
				t.AddRow(label, pt.X, pt.Y)
			}
		}
		return t.Render(w)
	}
}

// state is the Section 4.1 state anomaly on the Samsung SSD.
func state(_ context.Context, w io.Writer, cfg Config, _ int) error {
	fresh, used, err := stateAnomaly("samsung", cfg)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "Section 4.1 state anomaly (Samsung): RW out of the box %.2f ms, after writing the whole device %.2f ms (%.1fx)\n",
		fresh, used, used/fresh)
	return err
}

// stateAnomaly measures the mean random-write cost (ms) of the device key
// out of the box and after its random state is enforced.
func stateAnomaly(key string, cfg Config) (outOfBoxMS, afterFillMS float64, err error) {
	fresh, err := profile.BuildDevice(key, cfg.Capacity)
	if err != nil {
		return 0, 0, err
	}
	p := core.RW.Pattern(cfg.defaults(fresh.Capacity()))
	var sc core.Scratch
	run, err := core.ExecutePattern(&sc, fresh, p, 0)
	if err != nil {
		return 0, 0, err
	}
	used, at, err := Prepare(key, cfg)
	if err != nil {
		return 0, 0, err
	}
	run2, err := core.ExecutePattern(&sc, used, p, at)
	if err != nil {
		return 0, 0, err
	}
	return run.Summary.Mean * 1e3, run2.Summary.Mean * 1e3, nil
}
