package stats

import (
	"sync"
	"time"
)

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

// WindowSummaries slices a series into fixed-size windows (size < 1 means
// 1) and summarizes each, plus the whole series, on the calling goroutine.
func WindowSummaries(samples []time.Duration, size int) (Summary, []Window) {
	return Summarize(samples), Windows(samples, size, 1)
}

// Windows slices a series into fixed-size windows (size < 1 means 1), the
// last one partial when the series does not end on a window boundary, and
// summarizes each into a slice of exactly the windows. The windows are
// split into at most parts contiguous ranges, all but the first summarized
// on goroutines of their own; a window's summary reads only its own samples,
// so the result does not depend on parts.
func Windows(samples []time.Duration, size, parts int) []Window {
	size = max(size, 1)
	n := len(samples)/size + min(len(samples)%size, 1)
	out := make([]Window, n)
	per := (n + max(parts, 1) - 1) / max(parts, 1)
	var wg sync.WaitGroup
	for first := per; first < n; first += per {
		wg.Add(1)
		go func(dst []Window, size, first int) {
			defer wg.Done()
			summarizeWindows(dst, samples, size, first)
		}(out[first:min(first+per, n)], size, first)
	}
	summarizeWindows(out[:per], samples, size, 0)
	wg.Wait()
	return out
}

// summarizeWindows fills dst with windows first, first+1, … of samples.
func summarizeWindows(dst []Window, samples []time.Duration, size, first int) {
	for i := range dst {
		start := (first + i) * size
		end := start + min(size, len(samples)-start)
		dst[i] = Window{Start: int64(start), Summary: Summarize(samples[start:end])}
	}
}
