// Package workload turns the uFLIP reproduction into a scenario-diverse
// benchmark: synthetic application-shaped workloads (OLTP page mixes,
// log-structured append streams, Zipfian hot/cold access, bursty arrival
// phases) and a block-trace replayer, all expressed as deterministic streams
// of timed IOs driven against any simulated device.
//
// A workload is a flat []Op — each op an IO plus the inter-arrival gap since
// the previous submission. Op is the block trace's record type (an alias of
// trace.BlockOp), so a stream goes to and from a trace file with no
// conversion. A trace has two on-disk forms — the CSV of trace.go and the
// binary .utr of internal/trace/utr.go — each with one streaming reader and
// one streaming writer. NewOpReader (sniffs a stream, returns the form's
// reader) and NewOpWriter (returns the named form's writer) choose between
// them for reading and converting; WriteOps sends a whole .utr stream to
// trace.WriteUTR, and OpenTrace checks the magic itself to open a .utr
// replay source (trace.go).
// Streams are pure functions of their generator
// configuration (including the seed), so the same configuration always
// yields the identical stream. Replay is open-loop: op i is submitted at
// submit(i-1) + gap(i) regardless of completions, and the device's queueing
// shows up in the measured response times — exactly how a trace recorded on
// a real system is meant to be replayed.
//
// Long replays route through internal/engine: the stream is split into
// contiguous segments at fixed op boundaries, every segment replays on its
// own freshly built device (private FTL state, per-segment derived seed),
// and the per-segment runs merge in stream order — so the merged result is
// byte-identical for any worker count.
package workload

import (
	"context"
	"errors"
	"fmt"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/par"
	"uflip/internal/stats"
	"uflip/internal/trace"
)

// Op is one timed IO of a workload: the request (IO) plus the inter-arrival
// gap (Gap) between the previous op's submission and this one's. It is the
// block trace's record type, so a stream goes to and from either trace form
// without conversion.
type Op = trace.BlockOp

// Generator produces a deterministic op stream: the same configuration
// (seed included) always yields the identical stream.
type Generator interface {
	// Name labels the workload in reports.
	Name() string
	// Generate materializes the stream, validating the configuration.
	Generate() ([]Op, error)
}

// replayInto drives dev with the ops open-loop starting at virtual time
// startAt: op i is submitted at submit(i-1) + Gap(i). A busy device queues
// the request, and the wait is part of the measured response time. The
// returned run's Summary is left to the caller, which summarizes every op
// (IOIgnore 0 — replays have no methodology-defined warm-up to discard)
// together with the windows inside the segment. Transient device faults are
// retried and counted in the run's FaultStats; ctx cancels the replay
// between batches and inside the retry loop, so a canceled job stops
// promptly even mid-recovery. The response times land in rts, one slot per
// op: ReplaySource passes each segment its window of the stream-order array.
// The IOs go to the device through sc's batch.
func replayInto(ctx context.Context, sc *core.Scratch, dev device.Device, ops []Op, startAt time.Duration, rts []time.Duration) (*core.Run, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("workload: empty op stream")
	}
	run := sc.NewRun()
	*run = core.Run{Device: dev.Name(), RTs: rts[:len(ops)]}
	// Open loop: arrival times are known a priori, so each op's slot of
	// run.RTs starts as its absolute submission time. The IOs are built in
	// the replaying worker's batch, which its next segment reuses.
	ios := sc.Batch()
	t, base := startAt, 0
	end, err := device.Drive(ctx, dev, startAt, &run.Faults, func(time.Duration) ([]device.IO, []time.Duration, error) {
		win := run.RTs[base:min(base+len(ios), len(ops))]
		at := t // a local: t and base live in the closure's context
		for k, op := range ops[base : base+len(win)] {
			if op.Gap < 0 {
				return nil, nil, fmt.Errorf("op %d has negative inter-arrival gap %v", base+k, op.Gap)
			}
			at += op.Gap
			ios[k] = op.IO
			win[k] = at
		}
		t, base = at, base+len(win)
		return ios[:len(win)], win, nil
	})
	if err != nil {
		var be *device.BatchError
		if errors.As(err, &be) {
			return nil, fmt.Errorf("workload: op %d (%s off=%d size=%d): %w", be.Index, be.IO.Mode, be.IO.Off, be.IO.Size, be.Err)
		}
		return nil, fmt.Errorf("workload: %w", err)
	}
	run.Total = end - startAt
	return run, nil
}

// Options tunes a parallel replay.
type Options struct {
	// SegmentOps caps ops per engine job (<= 0: the whole stream is one
	// segment). It must stay fixed across executions expected to compare
	// byte-identically: the partition is a function of SegmentOps, never of
	// Workers.
	SegmentOps int
	// Workers bounds the engine worker pool; <= 0 means GOMAXPROCS, 1 is
	// one worker: the calling goroutine alone.
	Workers int
	// Seed is the base seed of the engine's derived per-segment seeds
	// (engine.Shard.Seed). The production factories ignore those — every
	// segment starts from the one master state enforced with the factory's
	// own seed — so it reaches results only through a factory that reads
	// them.
	Seed int64
	// WindowOps sizes the windowed summaries over the merged stream
	// (<= 0: 256).
	WindowOps int
	// Progress, when non-nil, observes segment completions.
	Progress engine.ProgressFunc
	// State, when non-nil, is the run state the replay runs on (the series
	// and each engine worker's batch and decode buffer, engine.Options.State)
	// and its runs, windows and percentiles are returned in.
	State *core.RunState
	// Release is engine.Options.Release for the replay.
	Release func(devs []device.Device)
}

func (o Options) windowOps() int {
	if o.WindowOps <= 0 {
		return 256
	}
	return o.WindowOps
}

// Result is the outcome of a (possibly parallel) workload replay.
type Result struct {
	// Name echoes the workload.
	Name string
	// Device names the device replayed against.
	Device string
	// Ops is the stream length.
	Ops int
	// Segments holds the per-segment runs, in stream order.
	Segments []*core.Run
	// Total summarizes every op of the stream.
	Total stats.Summary
	// Windows are fixed-size windowed summaries over the merged stream,
	// exposing drift (cache warm-up, free-pool drain) a single summary
	// would average away.
	Windows []stats.Window
	// P50, P95 and P99 are response-time percentiles over the merged
	// stream (one selection via stats.Percentiles).
	P50, P95, P99 time.Duration
	// Elapsed is the summed virtual duration of the segments — the
	// stream's device time as if replayed back-to-back.
	Elapsed time.Duration
	// Faults aggregates the per-segment fault and retry counts.
	Faults device.FaultStats
}

// Source is an op stream the engine can replay segment by segment without
// the whole stream ever being materialized: Len comes from metadata (the
// .utr header's record count), and each engine job asks only for its own
// contiguous window. Segment must be safe for concurrent calls with
// disjoint windows.
type Source interface {
	// Name labels the workload in reports.
	Name() string
	// Len is the stream length in ops.
	Len() int
	// Segment materializes ops [start, start+n) in stream order.
	Segment(start, n int) ([]Op, error)
}

// SegmentDecoder is the optional capability of a Source whose segments are
// decoded rather than sliced (a .utr file): SegmentInto is Segment writing
// into scratch the caller owns, so a replay worker decodes every segment it
// is given into one buffer instead of allocating each. The returned ops
// live in buf and are valid until buf's next use. ReplaySource uses the
// capability when the Source has it and calls Segment otherwise — a wrapper
// that embeds Source hides it, and its own Segment is what gets called.
type SegmentDecoder interface {
	Source
	SegmentInto(buf *core.SegmentBuf, start, n int) ([]Op, error)
}

// opsSource adapts an in-memory stream to Source; Segment returns subslices,
// so the slice-backed replay path is exactly as cheap as before.
type opsSource struct {
	name string
	ops  []Op
}

func (s opsSource) Name() string { return s.name }
func (s opsSource) Len() int     { return len(s.ops) }
func (s opsSource) Segment(start, n int) ([]Op, error) {
	if start < 0 || n <= 0 || start > len(s.ops)-n {
		return nil, fmt.Errorf("workload: segment [%d:%d) outside %d ops", start, start+n, len(s.ops))
	}
	return s.ops[start : start+n], nil
}

// OpsSource wraps an in-memory stream as a Source.
func OpsSource(name string, ops []Op) Source { return opsSource{name: name, ops: ops} }

// ReplaySource replays the stream through the engine: contiguous segments
// of opts.SegmentOps ops, one private device per segment (built by factory),
// runs merged in stream order. The partition is a pure function of src.Len()
// and opts.SegmentOps, never of the worker count; each engine job
// materializes only its own segment, and the merged result is byte-identical
// to replaying the materialized stream — for any opts.Workers value and for
// any Source backing (in-memory slice or .utr file).
//
// The response times of the whole stream live in one array in stream order:
// every segment's run.RTs is its window of that array, so the runs of a
// Result must not be appended to. A segment's job summarizes its run and
// every window of the stream wholly inside it in one pass (stats.SummarizeSpan).
// Each engine worker replays its segments on its core.Scratch of
// opts.State: one IO batch and, for a SegmentDecoder, one decode buffer.
func ReplaySource(ctx context.Context, src Source, factory engine.DeviceFactory, opts Options) (*Result, error) {
	total := src.Len()
	if total == 0 {
		return nil, fmt.Errorf("workload: empty op stream")
	}
	name := src.Name()
	segOps := opts.SegmentOps
	if segOps <= 0 || segOps >= total {
		segOps = total
	}
	workers := par.Workers(opts.Workers)
	// rts is the stream-order series each segment replays into (writing
	// every op's submission time before its response time), and windows its
	// summaries, filled by the segments they lie in and by the tail.
	st := opts.State.OrFresh()
	rts := st.Take(total)[:total]
	size := opts.windowOps()
	st.Windows = stats.NewWindows(st.Windows, total, size)
	windows := st.Windows
	decoder, _ := src.(SegmentDecoder)
	eopts := engine.Options{Workers: workers, Seed: opts.Seed, Progress: opts.Progress, State: st, Release: opts.Release}
	segs := (total + segOps - 1) / segOps
	scratch := st.Scratch(eopts.WorkerCount(segs))
	runs, err := engine.ExecuteEach(ctx, segs, func(k int) string { return fmt.Sprintf("%s/seg=%d", name, k) },
		func(ctx context.Context, w, k int, dev device.Device, startAt time.Duration) (*core.Run, error) {
			start := k * segOps
			n := min(segOps, total-start)
			sc := &scratch[w]
			var ops []Op
			var err error
			if decoder != nil {
				ops, err = decoder.SegmentInto(&sc.Segment, start, n)
			} else {
				ops, err = src.Segment(start, n)
			}
			if err != nil {
				return nil, err
			}
			if len(ops) != n {
				return nil, fmt.Errorf("workload: segment [%d:%d) came back with %d ops", start, start+n, len(ops))
			}
			run, err := replayInto(ctx, sc, dev, ops, startAt, rts[start:start+n:start+n])
			if err != nil {
				return nil, err
			}
			run.Summary = stats.SummarizeSpan(rts, start, start+n, size, windows)
			run.Name = fmt.Sprintf("%s[%d:%d]", name, start, start+n)
			return run, nil
		}, factory, eopts)
	if err != nil {
		return nil, err
	}
	res := &Result{Name: name, Ops: total, Segments: runs, Windows: windows}
	for _, run := range runs {
		if res.Device == "" {
			res.Device = run.Device
		}
		res.Elapsed += run.Total
		res.Faults.Add(run.Faults)
	}
	// The stream-order Welford total depends on the order of every sample to
	// the last bit, so it stays one pass; with it go the windows that cross a
	// segment boundary, at most one a boundary. Selection only reads the
	// series and runs beside them when the job has a second worker.
	var pcts []time.Duration
	tail := []func(){
		func() {
			res.Total = stats.Summarize(rts)
			stats.FillWindows(rts, size, windows)
		},
		func() { pcts = st.Select.Percentiles(rts, 50, 95, 99) },
	}
	par.Each(context.Background(), len(tail), workers, func(_ context.Context, _, i int) error {
		tail[i]()
		return nil
	})
	res.P50, res.P95, res.P99 = pcts[0], pcts[1], pcts[2]
	return res, nil
}
