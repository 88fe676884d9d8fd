package report

import (
	"fmt"
	"io"

	"uflip/internal/core"
	"uflip/internal/methodology"
)

// PlanSection renders the standard benchmark report for a completed plan:
// one summary table per micro-benchmark, then the device's key
// characteristics (its Table 3 row). The uflip CLI and the experiment
// server both render through it, so their reports are byte-identical for
// identical results.
func PlanSection(w io.Writer, micros []core.Microbenchmark, res *methodology.Results, ioSize int64) error {
	for _, mb := range micros {
		rows := len(mb.Experiments) // a row a run
		t := &Table{
			Title:   mb.Name + " (" + mb.Description + ")",
			Headers: []string{"experiment", "mean(ms)", "min(ms)", "max(ms)", "sd(ms)"},
			cells:   make([]byte, 0, 64*rows),
			ends:    make([]int, 0, 5*rows),
		}
		for _, r := range res.Results {
			if r.Exp.Micro != mb.Name {
				continue
			}
			s := r.Run.Summary
			t.addText(r.ID)
			for _, v := range [...]float64{s.Mean, s.Min, s.Max, s.StdDev} {
				t.addFloat(v * 1e3)
			}
		}
		if err := t.Render(w); err != nil {
			return err
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	var faults, retries int64
	for _, r := range res.Results {
		faults += r.Run.Faults.Faults
		retries += r.Run.Faults.Retries
	}
	if faults != 0 || retries != 0 {
		if _, err := fmt.Fprintf(w, "faults: %d observed across the plan, %d retries spent recovering\n\n", faults, retries); err != nil {
			return err
		}
	}
	char := Characterize(res, ioSize)
	return CharacterTable([]DeviceCharacter{char}).Render(w)
}
