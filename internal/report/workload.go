package report

import (
	"fmt"
	"io"
	"strconv"
	"time"

	"uflip/internal/stats"
	"uflip/internal/workload"
)

// WorkloadTable condenses a workload replay into one summary table: the
// merged totals followed by one row per window, so drift over the stream
// (cache warm-up, free-pool drain) stays visible.
func WorkloadTable(res *workload.Result) *Table {
	rows := 1 + len(res.Windows)
	t := &Table{
		Title: fmt.Sprintf("workload %s on %s: %d IOs in %d segment(s), %v of device time",
			res.Name, res.Device, res.Ops, len(res.Segments), res.Elapsed.Round(time.Millisecond)),
		Headers: []string{"window", "ios", "mean(ms)", "min(ms)", "max(ms)", "sd(ms)"},
		cells:   make([]byte, 0, 48*rows),
		ends:    make([]int, 0, 6*rows),
	}
	// A long replay has thousands of windows: the cells are formatted as
	// AddRow formats them, without boxing each one.
	addRow := func(s stats.Summary) {
		t.addInt(s.N)
		for _, v := range [...]float64{s.Mean, s.Min, s.Max, s.StdDev} {
			t.addFloat(v * 1e3)
		}
	}
	t.addText("total")
	addRow(res.Total)
	for _, w := range res.Windows {
		label := strconv.AppendInt(append(t.cells, '['), w.Start, 10)
		t.add(append(strconv.AppendInt(append(label, ':'), w.Start+w.Summary.N, 10), ')'))
		addRow(w.Summary)
	}
	return t
}

// WorkloadSection renders the workload report section: the summary table
// with response-time percentiles, plus a per-segment breakdown when the
// replay was split.
func WorkloadSection(w io.Writer, res *workload.Result) error {
	if err := WorkloadTable(res).Render(w); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(w, "percentiles: p50=%.3fms p95=%.3fms p99=%.3fms\n",
		res.P50.Seconds()*1e3, res.P95.Seconds()*1e3, res.P99.Seconds()*1e3); err != nil {
		return err
	}
	if !res.Faults.Zero() {
		if _, err := fmt.Fprintf(w, "faults: %d observed, %d retries spent recovering\n",
			res.Faults.Faults, res.Faults.Retries); err != nil {
			return err
		}
	}
	if len(res.Segments) <= 1 {
		return nil
	}
	seg := &Table{
		Title:   "per-segment replay (merged in stream order; identical for any worker count)",
		Headers: []string{"segment", "ios", "mean(ms)", "max(ms)", "device time"},
	}
	for _, run := range res.Segments {
		seg.addText(run.Name)
		seg.addInt(int64(len(run.RTs)))
		seg.addFloat(run.Summary.Mean * 1e3)
		seg.addFloat(run.Summary.Max * 1e3)
		seg.addText(run.Total.Round(time.Millisecond).String())
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	return seg.Render(w)
}
