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

// NewWindows returns the windows of an n-sample series cut every size
// samples (size >= 1), the last one cut at the series' end, all unwritten:
// SummarizeSpan and FillWindows write them. They are in buf's memory when
// that holds them.
func NewWindows(buf []Window, n, size int) []Window {
	return zeroed(buf, n/size+min(n%size, 1))
}

// SummarizeSpan returns Summarize(series[lo:hi]) and, in the same pass, the
// summary of every window of the series (NewWindows' layout) that lies
// wholly inside [lo, hi), into its slot of windows. Each sample is converted
// once and feeds both accumulators, so every result has Summarize's bits.
// Spans that do not overlap write different windows, so a series cut into
// spans can be summarized span by span on several goroutines; a window that
// crosses a cut is left unwritten, for FillWindows. No bound overflows, up
// to a size of math.MaxInt.
func SummarizeSpan(series []time.Duration, lo, hi, size int, windows []Window) Summary {
	var span Running
	i := lo
	next := lo // the first window start at or after lo
	if r := lo % size; r != 0 {
		next = lo - r + size
	}
	for next < hi {
		end := next + min(size, len(series)-next)
		if end > hi {
			break
		}
		for ; i < next; i++ {
			span.AddDuration(series[i])
		}
		var win Running
		for ; i < end; i++ {
			x := series[i].Seconds()
			span.Add(x)
			win.Add(x)
		}
		windows[next/size] = Window{Start: int64(next), Summary: win.Summary()}
		next = end
	}
	for ; i < hi; i++ {
		span.AddDuration(series[i])
	}
	return span.Summary()
}

// FillWindows summarizes every window still unwritten (Summary.N == 0: a
// written window holds at least one sample), which after SummarizeSpan over
// a series' spans are the windows that cross a cut. Then windows holds
// every window's summary, whatever the cuts.
func FillWindows(series []time.Duration, size int, windows []Window) {
	for i := range windows {
		if windows[i].Summary.N == 0 {
			start := i * size
			windows[i] = Window{Start: int64(start), Summary: Summarize(series[start : start+min(size, len(series)-start)])}
		}
	}
}
