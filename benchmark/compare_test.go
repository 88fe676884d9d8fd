package main

import (
	"bytes"
	"strings"
	"testing"
)

func TestJudge(t *testing.T) {
	// Ten runs around 100 with a 2 % interquartile spread.
	base := []float64{98, 99, 99, 100, 100, 100, 100, 101, 101, 102}
	scale := func(f float64) []float64 {
		out := make([]float64, len(base))
		for i, x := range base {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{70, 80, 90, 95, 100, 100, 105, 110, 120, 130} // spread 25 %
	for _, tc := range []struct {
		name   string
		a, b   []float64
		higher bool
		bound  float64
		want   verdict
	}{
		{"same runs", base, base, false, 0.10, withinBound},
		{"3% slower, lower is better", base, scale(1.03), false, 0.10, withinBound},
		{"15% slower, lower is better", base, scale(1.15), false, 0.10, worse},
		{"15% faster, lower is better", base, scale(0.85), false, 0.10, better},
		{"15% more, higher is better", base, scale(1.15), true, 0.10, better},
		{"15% less, higher is better", base, scale(0.85), true, 0.10, worse},
		{"improvement inside A's own spread", base, scale(0.995), false, 0.10, withinBound},
		{"just past a tight bound", base, scale(1.06), false, 0.05, worse},
		{"spread wider than the bound", noisy, noisy, false, 0.10, unresolved},
		{"wide spread, median a little better", noisy, scale(0.9), false, 0.10, unresolved},
		{"wide spread, every run better", noisy, scale(0.5), false, 0.10, better},
		{"wide spread, every run worse", noisy, scale(2), false, 0.10, worse},
		{"no runs on one side", base, nil, false, 0.10, unresolved},
		{"one run each, unchanged", []float64{100}, []float64{101}, false, 0.10, withinBound},
		{"one run each, regressed", []float64{100}, []float64{120}, false, 0.10, worse},
	} {
		if got := judge(tc.a, tc.b, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareDocsCountsWorse(t *testing.T) {
	spec := &benchSpec{
		Workloads: []specWorkload{{Name: "w"}},
		EndToEnd: []specMetric{
			{Name: "up", Unit: "x", Better: "higher", Bound: 0.10},
			{Name: "down", Unit: "x", Better: "lower", Bound: 0.10},
		},
	}
	a := map[string]map[string][]float64{"w": {"up": {100, 101, 99}, "down": {100, 101, 99}}}
	b := map[string]map[string][]float64{"w": {"up": {80, 81, 79}, "down": {100, 100, 100}}}
	var out bytes.Buffer
	if n := compareDocs(&out, spec, a, b); n != 1 {
		t.Errorf("worse count = %d, want 1\n%s", n, out.String())
	}
	for _, want := range []string{"worse", "within bound", "-20.0%"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
}
