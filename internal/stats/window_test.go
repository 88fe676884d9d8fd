package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

func TestWindowedSealsFixedWindows(t *testing.T) {
	w := NewWindowed(3)
	for i := 1; i <= 8; i++ {
		w.Add(float64(i))
	}
	windows := w.Windows()
	if len(windows) != 3 {
		t.Fatalf("got %d windows, want 3 (two sealed + one partial)", len(windows))
	}
	wantStarts := []int64{0, 3, 6}
	wantNs := []int64{3, 3, 2}
	wantMeans := []float64{2, 5, 7.5}
	for i, win := range windows {
		if win.Start != wantStarts[i] || win.Summary.N != wantNs[i] {
			t.Fatalf("window %d = start %d n %d, want start %d n %d",
				i, win.Start, win.Summary.N, wantStarts[i], wantNs[i])
		}
		if math.Abs(win.Summary.Mean-wantMeans[i]) > 1e-12 {
			t.Fatalf("window %d mean %v, want %v", i, win.Summary.Mean, wantMeans[i])
		}
	}
	if w.Total().N != 8 {
		t.Fatalf("total N %d, want 8", w.Total().N)
	}
	// Windows is a snapshot: the accumulator keeps working afterwards.
	w.Add(9)
	if got := w.Windows(); len(got) != 3 || got[2].Summary.N != 3 {
		t.Fatalf("accumulator unusable after Windows: %+v", got)
	}
}

func TestWindowedTotalMatchesSummarize(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	samples := make([]time.Duration, 1000)
	for i := range samples {
		samples[i] = time.Duration(rng.Int63n(int64(50 * time.Millisecond)))
	}
	w := NewWindowed(64)
	for _, d := range samples {
		w.AddDuration(d)
	}
	got, want := w.Total(), Summarize(samples)
	if got.N != want.N || got.Min != want.Min || got.Max != want.Max ||
		math.Abs(got.Mean-want.Mean) > 1e-15 || math.Abs(got.StdDev-want.StdDev) > 1e-12 {
		t.Fatalf("streaming total %+v differs from Summarize %+v", got, want)
	}
	// Re-accumulating the windows' own samples, concatenated, must agree too.
	var again Running
	for _, win := range w.Windows() {
		for _, d := range samples[win.Start : win.Start+win.Summary.N] {
			again.AddDuration(d)
		}
	}
	if m := again.Summary(); m != want {
		t.Fatalf("windows re-accumulated %+v differ from full summary %+v", m, want)
	}
}

func TestWindowSummariesConvenience(t *testing.T) {
	if total, got := WindowSummaries(nil, 10); len(got) != 0 || total.N != 0 {
		t.Fatalf("empty series produced %d windows, total %+v", len(got), total)
	}
	_, got := WindowSummaries([]time.Duration{time.Millisecond, time.Millisecond}, 0)
	if len(got) != 2 { // size < 1 clamps to 1: one window per sample
		t.Fatalf("size 0 produced %d windows, want 2", len(got))
	}
}

// TestWindowSummariesMatchesStreaming: the series function returns what the
// streaming accumulator does, in one allocation of exactly the windows.
func TestWindowSummariesMatchesStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
		w := NewWindowed(64)
		for _, d := range samples {
			w.AddDuration(d)
		}
		total, windows := WindowSummaries(samples, 64)
		if total != w.Total() || !reflect.DeepEqual(windows, w.Windows()) {
			t.Fatalf("n=%d: WindowSummaries differs from the streaming accumulator", n)
		}
		if cap(windows) != len(windows) {
			t.Fatalf("n=%d: %d windows in a slice of capacity %d", n, len(windows), cap(windows))
		}
		if allocs := testing.AllocsPerRun(10, func() { WindowSummaries(samples, 64) }); allocs > 2 {
			t.Fatalf("n=%d: WindowSummaries allocates %.0f times, want <= 2 (accumulator + windows)", n, allocs)
		}
	}
}
