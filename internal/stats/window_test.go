package stats

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"
)

// Windowed is the streaming accumulator the window summaries started as,
// kept as the oracle of SummarizeSpan: every Size samples it seals a Window,
// while a second accumulator keeps the overall totals.
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

// TestWindowSummariesMatchesStreaming: a series cut into spans — at every
// cut size, one that divides the window size, one that does not, one longer
// than the series — and summarized span by span with SummarizeSpan gives
// each span Summarize's bits, and, once FillWindows has summarized the
// windows crossing a cut, exactly the windows of the streaming accumulator.
// A window crossing a cut is left unwritten, and a span allocates nothing.
// A window of math.MaxInt samples is one window cut at the series' end.
func TestWindowSummariesMatchesStreaming(t *testing.T) {
	if got := SummarizeSpan(nil, 0, 0, 10, nil); got != (Summary{}) {
		t.Fatalf("empty span summarized as %+v", got)
	}
	rng := rand.New(rand.NewSource(5))
	for _, n := range []int{1, 63, 64, 65, 1000} {
		samples := make([]time.Duration, n)
		for i := range samples {
			samples[i] = time.Duration(rng.Int63n(int64(time.Millisecond)))
		}
		for _, size := range []int{1, 7, 64, n + 1, math.MaxInt} {
			w := NewWindowed(size)
			for _, d := range samples {
				w.AddDuration(d)
			}
			want := w.Windows()
			for _, cut := range []int{1, 5, 64, 100, 128, n} {
				windows := NewWindows(nil, n, size)
				if len(windows) != len(want) {
					t.Fatalf("n=%d size=%d: %d windows, want %d", n, size, len(windows), len(want))
				}
				for lo := 0; lo < n; lo += cut {
					hi := min(lo+cut, n)
					if got, want := SummarizeSpan(samples, lo, hi, size, windows), Summarize(samples[lo:hi]); got != want {
						t.Fatalf("n=%d size=%d cut=%d: span [%d,%d) summarized as %+v, want %+v", n, size, cut, lo, hi, got, want)
					}
				}
				for i, win := range windows {
					crosses := i*size/cut != (i*size+min(size, n-i*size)-1)/cut
					if crosses != (win.Summary.N == 0) {
						t.Fatalf("n=%d size=%d cut=%d: window %d crosses a cut: %v, written: %v", n, size, cut, i, crosses, win.Summary.N != 0)
					}
				}
				FillWindows(samples, size, windows)
				if !reflect.DeepEqual(windows, want) {
					t.Fatalf("n=%d size=%d cut=%d: windows differ from the streaming accumulator", n, size, cut)
				}
				if allocs := testing.AllocsPerRun(10, func() { SummarizeSpan(samples, 0, min(cut, n), size, windows) }); allocs != 0 {
					t.Fatalf("n=%d size=%d cut=%d: SummarizeSpan allocates %.0f times", n, size, cut, allocs)
				}
			}
		}
	}
}
