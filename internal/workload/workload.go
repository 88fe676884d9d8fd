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
// one streaming writer; the only code that knows there are two is
// NewOpReader (sniffs a stream, returns the form's reader) and NewOpWriter
// (returns the named form's writer), and reading, writing, saving, loading
// and converting a trace are each one function over those (trace.go).
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
	"runtime"
	"sync"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/engine"
	"uflip/internal/stats"
	"uflip/internal/trace"
)

// batchOps is how many ops a replay hands the device per SubmitBatch call;
// the submission scratch is a fixed stack buffer of this size.
const batchOps = 128

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
// returned run summarizes every op (IOIgnore 0 — replays have no
// methodology-defined warm-up to discard). Transient device faults are
// retried under the default policy and counted in the run's FaultStats; ctx
// cancels the replay between batches and inside the retry loop, so a canceled
// job stops promptly even mid-recovery. The response times are appended to
// rts, which must be empty with room for one per op: ReplaySource passes each
// segment its window of the stream-order array.
func replayInto(ctx context.Context, dev device.Device, ops []Op, startAt time.Duration, rts []time.Duration) (*core.Run, error) {
	if len(ops) == 0 {
		return nil, fmt.Errorf("workload: empty op stream")
	}
	run := &core.Run{Device: dev.Name(), RTs: rts}
	// Open-loop batch submission: arrival times are known a priori, so each
	// batch entry carries its absolute submission time and the whole batch
	// is one SubmitBatch call. The scratch is a fixed-size stack buffer —
	// per-replay (and therefore per-segment/shard), never shared or pooled.
	t := startAt
	var end time.Duration
	var acc stats.Running
	var ios [batchOps]device.IO
	var sub, done [batchOps]time.Duration
	for base := 0; base < len(ops); {
		n := len(ops) - base
		if n > batchOps {
			n = batchOps
		}
		for k := 0; k < n; k++ {
			op := ops[base+k]
			if op.Gap < 0 {
				return nil, fmt.Errorf("workload: op %d has negative inter-arrival gap %v", base+k, op.Gap)
			}
			t += op.Gap
			ios[k] = op.IO
			sub[k], done[k] = t, t
		}
		if err := device.SubmitBatchRetry(ctx, dev, done[0], ios[:n], done[:n], device.DefaultRetryPolicy, &run.Faults); err != nil {
			var be *device.BatchError
			if errors.As(err, &be) {
				i := base + be.Index
				return nil, fmt.Errorf("workload: op %d (%s off=%d size=%d): %w", i, be.IO.Mode, be.IO.Off, be.IO.Size, be.Err)
			}
			return nil, fmt.Errorf("workload: %w", err)
		}
		for k := 0; k < n; k++ {
			rt := done[k] - sub[k]
			run.RTs = append(run.RTs, rt)
			acc.AddDuration(rt)
			if done[k] > end {
				end = done[k]
			}
		}
		base += n
	}
	run.Summary = acc.Summary()
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
	// the sequential fallback.
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
	SegmentInto(buf *SegmentBuf, start, n int) ([]Op, error)
}

// SegmentBuf is one worker's decode scratch: the ops of the segment being
// replayed and the raw bytes they are read through. The zero value is ready
// for use; a buffer must not be shared by concurrent calls.
type SegmentBuf struct {
	ops []Op
	raw []byte
}

// segmentBufs is the free list a replay's workers draw their SegmentBuf
// from: a job takes one for the length of its segment, so no more exist
// than jobs run at once.
type segmentBufs struct {
	mu   sync.Mutex
	free []*SegmentBuf
}

func (b *segmentBufs) take() *SegmentBuf {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.free); n > 0 {
		buf := b.free[n-1]
		b.free = b.free[:n-1]
		return buf
	}
	return new(SegmentBuf)
}

func (b *segmentBufs) give(buf *SegmentBuf) {
	b.mu.Lock()
	b.free = append(b.free, buf)
	b.mu.Unlock()
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

// ReplayParallel replays the stream through the engine: contiguous segments
// of opts.SegmentOps ops, one private device per segment (built by factory),
// runs merged in stream order. The result is byte-identical for any
// opts.Workers value.
func ReplayParallel(ctx context.Context, name string, ops []Op, factory engine.DeviceFactory, opts Options) (*Result, error) {
	return ReplaySource(ctx, opsSource{name: name, ops: ops}, factory, opts)
}

// ReplaySource is ReplayParallel over a Source: the partition is a pure
// function of src.Len() and opts.SegmentOps, never of the worker count; each
// engine job materializes only its own segment, and the merged result is
// byte-identical to replaying the materialized stream — for any opts.Workers
// value and for any Source backing (in-memory slice or .utr file).
//
// The response times of the whole stream live in one array in stream order:
// every segment's run.RTs is its window of that array, so the runs of a
// Result must not be appended to.
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
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// rts is the stream-order series each segment replays into; sel is the
	// copy percentile selection will rearrange, gathered by the workers while
	// their segment is still in cache so the tail allocates nothing.
	rts := make([]time.Duration, total)
	sel := make([]time.Duration, total)
	decoder, _ := src.(SegmentDecoder)
	var bufs segmentBufs
	jobs := make([]engine.Job, 0, (total+segOps-1)/segOps)
	for start := 0; start < total; start += segOps {
		start := start
		n := segOps
		if start+n > total {
			n = total - start
		}
		jobs = append(jobs, engine.Job{
			ID: fmt.Sprintf("%s/seg=%d", name, len(jobs)),
			Run: func(ctx context.Context, dev device.Device, startAt time.Duration) (*core.Run, error) {
				var ops []Op
				var err error
				if decoder != nil {
					buf := bufs.take()
					defer bufs.give(buf)
					ops, err = decoder.SegmentInto(buf, start, n)
				} else {
					ops, err = src.Segment(start, n)
				}
				if err != nil {
					return nil, err
				}
				if len(ops) != n {
					return nil, fmt.Errorf("workload: segment [%d:%d) came back with %d ops", start, start+n, len(ops))
				}
				run, err := replayInto(ctx, dev, ops, startAt, rts[start:start:start+n])
				if err != nil {
					return nil, err
				}
				copy(sel[start:start+n], run.RTs)
				run.Name = fmt.Sprintf("%s[%d:%d]", name, start, start+n)
				return run, nil
			},
		})
	}
	runs, err := engine.ExecuteJobs(ctx, jobs, factory, engine.Options{
		Workers:  workers,
		Seed:     opts.Seed,
		Progress: opts.Progress,
	})
	if err != nil {
		return nil, err
	}
	res := &Result{Name: name, Ops: total, Segments: runs}
	for _, run := range runs {
		if res.Device == "" {
			res.Device = run.Device
		}
		res.Elapsed += run.Total
		res.Faults.Add(run.Faults)
	}
	// The stream-order Welford total depends on the order of every sample to
	// the last bit, so it stays one pass on this goroutine; selection shares
	// no data with it and runs beside it when the job has a second worker.
	selected := make(chan []time.Duration, 1)
	selectPcts := func() { selected <- stats.PercentilesInPlace(sel, 50, 95, 99) }
	if workers > 1 {
		go selectPcts()
	} else {
		selectPcts()
	}
	w := stats.NewWindowed(opts.windowOps())
	for _, rt := range rts {
		w.AddDuration(rt)
	}
	res.Total = w.Total()
	res.Windows = w.Windows()
	pcts := <-selected
	res.P50, res.P95, res.P99 = pcts[0], pcts[1], pcts[2]
	return res, nil
}

// Generate materializes a generator's stream and replays it in parallel: the
// convenience path the uflip workload subcommand and the examples use.
func Generate(ctx context.Context, g Generator, factory engine.DeviceFactory, opts Options) (*Result, error) {
	ops, err := g.Generate()
	if err != nil {
		return nil, err
	}
	return ReplayParallel(ctx, g.Name(), ops, factory, opts)
}
