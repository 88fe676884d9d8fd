package stats

import "time"

// Window is the summary of one fixed-size slice of a long response-time
// series: samples [Start, Start+Summary.N). Long trace replays are reported
// as a sequence of windows so drift over time (a draining free pool, cache
// warm-up) stays visible without retaining every sample.
type Window struct {
	// Start is the index of the window's first sample in the full series.
	Start int64 `json:"start"`
	// Summary covers the window's samples.
	Summary Summary `json:"summary"`
}

// Windowed accumulates streaming windowed summaries: every Size samples it
// seals a Window, while a second accumulator keeps the overall totals. It
// retains O(windows) state, never the samples themselves, so it can follow a
// replay of millions of IOs.
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
		w.seal()
	}
}

// AddDuration records one observation expressed as a duration, in seconds.
func (w *Windowed) AddDuration(d time.Duration) { w.Add(d.Seconds()) }

func (w *Windowed) seal() {
	w.done = append(w.done, Window{Start: w.n - w.cur.N(), Summary: w.cur.Summary()})
	w.cur = Running{}
}

// N returns the number of observations so far.
func (w *Windowed) N() int64 { return w.n }

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

// WindowSummaries slices a series into fixed-size windows (size < 1 means
// 1) and summarizes each, plus the whole series: the streaming accumulator
// over a series already in hand, with the windows sized once from its length.
func WindowSummaries(samples []time.Duration, size int) (Summary, []Window) {
	w := NewWindowed(size)
	w.done = make([]Window, 0, (int64(len(samples))+w.size-1)/w.size)
	for _, d := range samples {
		w.AddDuration(d)
	}
	if w.cur.N() > 0 {
		w.seal()
	}
	return w.Total(), w.done
}
