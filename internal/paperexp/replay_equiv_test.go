package paperexp

import (
	"bytes"
	"context"
	"reflect"
	"sync/atomic"
	"testing"
	"time"

	"uflip/internal/report"
	"uflip/internal/stats"
	"uflip/internal/workload"
)

// countingSource wraps a Source the way the benchmark's interposer does: by
// embedding the interface, which hides any capability of the value inside,
// so ReplaySource must come through Segment.
type countingSource struct {
	workload.Source
	calls *atomic.Int64
}

func (c countingSource) Segment(start, n int) ([]workload.Op, error) {
	c.calls.Add(1)
	return c.Source.Segment(start, n)
}

// TestReplaySourceSameResultAnyWorkersAnySource: one stream replayed from a
// .utr source (per-worker decode buffers), an in-memory source (subslices)
// and a wrapper that hides the decode capability (the Segment fallback), at
// 1, 2, 3 and 8 workers, gives one Result — every field equal — and one set
// of rendered bytes. The stream length is a multiple of neither the segment
// nor the window size, and the segment size is no multiple of the window's.
// The tail of that Result (total, windows, percentiles) is held to the
// plain recomputation over the concatenated response times.
func TestReplaySourceSameResultAnyWorkersAnySource(t *testing.T) {
	const spec = "faulty(stripe(2,memoright,memoright),seed=7)"
	cfg := Config{Capacity: 64 << 20, Seed: 42, Pause: time.Second}
	ops, err := workload.OLTP{PageSize: 8192, TargetSize: cfg.Capacity, ReadFraction: 0.7, Count: 10_007, Seed: cfg.Seed}.Generate()
	if err != nil {
		t.Fatal(err)
	}
	var utr bytes.Buffer
	if err := workload.WriteUTR(&utr, ops); err != nil {
		t.Fatal(err)
	}
	fromUTR, err := workload.NewUTRSource(bytes.NewReader(utr.Bytes()), int64(utr.Len()), "equiv")
	if err != nil {
		t.Fatal(err)
	}
	var fallbackCalls atomic.Int64
	sources := []struct {
		name string
		src  workload.Source
	}{
		{"ops", workload.OpsSource(fromUTR.Name(), ops)},
		{"utr", fromUTR},
		{"wrapped utr", countingSource{Source: fromUTR, calls: &fallbackCalls}},
	}
	opts := workload.Options{SegmentOps: 1300, WindowOps: 256, Seed: cfg.Seed}
	const segments = 8 // ceil(10007 / 1300)

	var want *workload.Result
	var wantBytes map[string]string
	for _, s := range sources {
		for _, workers := range []int{1, 2, 3, 8} {
			opts.Workers = workers
			fallbackCalls.Store(0)
			res, err := workload.ReplaySource(context.Background(), s.src, ShardFactory(spec, cfg), opts)
			if err != nil {
				t.Fatalf("%s at %d workers: %v", s.name, workers, err)
			}
			if calls := fallbackCalls.Load(); s.name == "wrapped utr" && calls != segments {
				t.Errorf("wrapped source at %d workers: Segment called %d times, want %d", workers, calls, segments)
			}
			rendered := map[string]string{}
			addRendered(t, rendered, "replay", WorkloadRecords(res), func(w *bytes.Buffer) error {
				return report.WorkloadSection(w, res)
			})
			if want == nil {
				want, wantBytes = res, rendered
				continue
			}
			if !reflect.DeepEqual(res, want) {
				t.Errorf("%s at %d workers: Result differs from ops at 1 worker", s.name, workers)
			}
			if !reflect.DeepEqual(rendered, wantBytes) {
				t.Errorf("%s at %d workers: rendered CSV/.jsonl/report differ from ops at 1 worker", s.name, workers)
			}
		}
	}

	if len(want.Segments) != segments {
		t.Fatalf("%d segments, want %d", len(want.Segments), segments)
	}
	var merged []time.Duration
	var elapsed time.Duration
	for _, run := range want.Segments {
		if got := stats.Summarize(run.RTs); got != run.Summary {
			t.Errorf("%s: summary %+v, its response times give %+v", run.Name, run.Summary, got)
		}
		merged = append(merged, run.RTs...)
		elapsed += run.Total
	}
	pcts := stats.Percentiles(merged, 50, 95, 99)
	if want.P50 != pcts[0] || want.P95 != pcts[1] || want.P99 != pcts[2] {
		t.Errorf("percentiles %v/%v/%v, the merged series gives %v", want.P50, want.P95, want.P99, pcts)
	}
	if got := stats.Summarize(merged); got != want.Total {
		t.Errorf("total %+v, the merged series gives %+v", want.Total, got)
	}
	if got := stats.WindowSummaries(merged, opts.WindowOps); !reflect.DeepEqual(got, want.Windows) {
		t.Errorf("windows differ from the merged series' (%d vs %d)", len(want.Windows), len(got))
	}
	if want.Ops != len(ops) || len(merged) != len(ops) || want.Elapsed != elapsed {
		t.Errorf("ops %d, merged %d, elapsed %v; want %d, %d, %v", want.Ops, len(merged), want.Elapsed, len(ops), len(ops), elapsed)
	}
}
