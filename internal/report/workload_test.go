package report

import (
	"strings"
	"testing"
	"time"

	"uflip/internal/core"
	"uflip/internal/stats"
	"uflip/internal/workload"
)

func sampleWorkloadResult() *workload.Result {
	all := []time.Duration{time.Millisecond, 2 * time.Millisecond, 3 * time.Millisecond, 4 * time.Millisecond}
	total := stats.Summarize(all)
	windows := []stats.Window{{Start: 0, Summary: stats.Summarize(all[:2])}, {Start: 2, Summary: stats.Summarize(all[2:])}}
	mkRun := func(name string, rts ...time.Duration) *core.Run {
		return &core.Run{
			Name: name, Device: "memoright", RTs: rts,
			Summary: stats.Summarize(rts),
			Total:   20 * time.Millisecond,
		}
	}
	return &workload.Result{
		Name:   "oltp(r=0.70)",
		Device: "memoright",
		Ops:    4,
		Segments: []*core.Run{
			mkRun("oltp[0:2]", time.Millisecond, 2*time.Millisecond),
			mkRun("oltp[2:4]", 3*time.Millisecond, 4*time.Millisecond),
		},
		Total:   total,
		Windows: windows,
		Elapsed: 40 * time.Millisecond,
	}
}

func TestWorkloadSection(t *testing.T) {
	var b strings.Builder
	if err := WorkloadSection(&b, sampleWorkloadResult()); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"workload oltp(r=0.70) on memoright: 4 IOs in 2 segment(s)",
		"total", "[0:2)", "[2:4)",
		"per-segment replay",
		"oltp[0:2]", "oltp[2:4]",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("section missing %q:\n%s", want, out)
		}
	}
	// A single-segment replay renders no per-segment table.
	res := sampleWorkloadResult()
	res.Segments = res.Segments[:1]
	b.Reset()
	if err := WorkloadSection(&b, res); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(b.String(), "per-segment") {
		t.Fatal("single-segment replay rendered a per-segment table")
	}
}
