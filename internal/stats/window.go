package stats

import (
	"context"
	"time"

	"uflip/internal/par"
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

// Windows slices a series into fixed-size windows (size < 1 means 1), the
// last one partial when the series does not end on a window boundary, and
// summarizes each into a slice of exactly the windows. The windows are
// split into at most workers contiguous ranges summarized by par.Each; a
// window's summary reads only its own samples, so the result does not depend
// on workers.
func Windows(samples []time.Duration, size, workers int) []Window {
	size = max(size, 1)
	n := len(samples)/size + min(len(samples)%size, 1)
	out := make([]Window, n)
	per := max(1, (n+max(workers, 1)-1)/max(workers, 1))
	ranges := (n + per - 1) / per
	par.Each(context.Background(), ranges, ranges, func(_ context.Context, _, r int) error {
		for i := r * per; i < min(r*per+per, n); i++ {
			start := i * size
			out[i] = Window{Start: int64(start), Summary: Summarize(samples[start:min(start+size, len(samples))])}
		}
		return nil
	})
	return out
}
