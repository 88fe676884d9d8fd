package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Windowed is the streaming accumulator Windows replaced, kept as
// its oracle: every Size samples it seals a Window, while a second
// accumulator keeps the overall totals.
type Windowed struct {
	size  int64
	n     int64
	cur   Running
	total Running
	done  []Window
}

// NewWindowed returns a streaming accumulator sealing one window every size
// samples (size < 1 means 1).
func NewWindowed(size int) *Windowed {
	if size < 1 {
		size = 1
	}
	return &Windowed{size: int64(size)}
}

// Add records one observation.
func (w *Windowed) Add(x float64) {
	w.cur.Add(x)
	w.total.Add(x)
	w.n++
	if w.cur.N() >= w.size {
		w.done = append(w.done, Window{Start: w.n - w.cur.N(), Summary: w.cur.Summary()})
		w.cur = Running{}
	}
}

// AddDuration records one observation expressed as a duration, in seconds.
func (w *Windowed) AddDuration(d time.Duration) { w.Add(d.Seconds()) }

// Windows returns the sealed windows plus, when the series did not end on a
// window boundary, a final partial window. The accumulator stays usable.
func (w *Windowed) Windows() []Window {
	out := make([]Window, len(w.done), len(w.done)+1)
	copy(out, w.done)
	if w.cur.N() > 0 {
		out = append(out, Window{Start: w.n - w.cur.N(), Summary: w.cur.Summary()})
	}
	return out
}

// Total returns the summary over every observation.
func (w *Windowed) Total() Summary { return w.total.Summary() }

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

// TestWindowSummariesMatchesStreaming: Summarize and Windows return what the
// streaming accumulator does, in one allocation of exactly the windows, and
// Windows returns the same windows however many ranges it splits them into.
// An empty series has no windows, and a size below 1 means 1.
func TestWindowSummariesMatchesStreaming(t *testing.T) {
	if got := Windows(nil, 10, 1); len(got) != 0 {
		t.Fatalf("empty series produced %d windows", len(got))
	}
	if got := Windows([]time.Duration{time.Millisecond, time.Millisecond}, 0, 1); len(got) != 2 {
		t.Fatalf("size 0 produced %d windows, want 2", len(got))
	}
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
		total, windows := Summarize(samples), Windows(samples, 64, 1)
		if total != w.Total() || !reflect.DeepEqual(windows, w.Windows()) {
			t.Fatalf("n=%d: Summarize and Windows differ from the streaming accumulator", n)
		}
		if cap(windows) != len(windows) {
			t.Fatalf("n=%d: %d windows in a slice of capacity %d", n, len(windows), cap(windows))
		}
		if allocs := testing.AllocsPerRun(10, func() { Summarize(samples); Windows(samples, 64, 1) }); allocs > 2 {
			t.Fatalf("n=%d: Summarize and Windows allocate %.0f times, want <= 2 (windows + wait group)", n, allocs)
		}
		for _, parts := range []int{0, 2, 3, 7, 16, n + 1} {
			if got := Windows(samples, 64, parts); !reflect.DeepEqual(got, windows) {
				t.Fatalf("n=%d: Windows in %d parts differs from one part", n, parts)
			}
		}
	}
}
