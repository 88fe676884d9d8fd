// Package engine executes uFLIP benchmark plans in parallel. The paper's
// methodology (Section 4) produces plans of many mutually independent runs:
// each run measures one experiment after the device state has been enforced,
// and runs are separated by pauses (or full state resets) precisely so they
// do not interfere. The engine exploits that independence: it makes every
// run of a methodology.Plan a deterministic shard, gives every shard a private
// simulated device in a freshly built state (so runs never share mutable FTL
// state; a worker's finished device is offered to its next shard to be
// recycled, Shard.Reuse) and its own derived RNG seed, executes the shards
// across a bounded worker pool, and merges the per-run results ordered by
// the run's index in the plan — never by completion time — so the merged
// output is byte-identical for any worker count.
package engine

import (
	"context"
	"sync"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/methodology"
)

// Shard is an independent unit of scheduling: one plan run (or one stream
// job) executed on a private device instance. Shard boundaries depend only on
// the plan, never on the worker count, which is what keeps parallel execution
// deterministic.
type Shard struct {
	// Index is the index of the run the shard executes: the plan's run
	// (methodology.Plan.Runs) or the job.
	Index int
	// Seed is the shard's derived RNG seed, a pure function of (base seed,
	// shard index), offered to factories that want per-shard randomness. No
	// production factory reads it: Master/CloningFactory enforce one master
	// state from their own configured seed and copy it, so every shard starts
	// from the same well-defined state (Section 4.1).
	Seed int64
	// Reuse, when non-nil, is the device the same worker's previous shard ran
	// on: finished, quiescent and referenced by nothing else, because neither
	// a plan run nor a Job.Run retains its device after it returns. A factory
	// may recycle it for this shard instead of allocating a new stack —
	// Master.Factory resets it in place from the enforced master — or ignore
	// it, as factories that rebuild do. It never influences results: a
	// recycled device starts in exactly the state a fresh one would.
	Reuse device.Device
}

// DeviceFactory builds the private device a shard runs against and returns
// it together with the virtual time at which measurements may start
// (typically the end of state enforcement plus the inter-run pause). It is
// called from worker goroutines and must not share mutable state across
// calls.
type DeviceFactory func(shard Shard) (device.Device, time.Duration, error)

// ProgressFunc observes engine execution: done runs completed out of total,
// and the ID of the run that just finished. It is called from a single
// goroutine at a time (the engine serializes calls) but not necessarily in
// run-index order.
type ProgressFunc func(done, total int, desc string)

// Options tunes plan execution.
type Options struct {
	// Workers bounds the worker pool; <= 0 means runtime.GOMAXPROCS(0).
	// With one worker the pool is the calling goroutine alone: shards run
	// on it in index order and no goroutine starts.
	Workers int
	// Seed is the base seed from which Shard.Seed values are derived. It
	// reaches results only through a factory that reads Shard.Seed; the
	// production factories do not (their enforcement seed is configured on
	// the master).
	Seed int64
	// Progress, when non-nil, is invoked after every completed run.
	Progress ProgressFunc
	// State, when non-nil, is the run state the execution's workers run
	// on and its results are returned in (a daemon worker's, kept across
	// its jobs); nil makes a fresh one.
	State *core.RunState
	// Release, when non-nil, is handed each worker's last device (nil for
	// one that ran no job) when the execution ends, to recycle later.
	Release func(devs []device.Device)
}

// shardSeed mixes the base seed with the shard index (splitmix64 finalizer)
// so shards draw from decorrelated random streams while remaining a pure
// function of (base seed, shard index).
func shardSeed(base int64, index int) int64 {
	z := uint64(base) + (uint64(index)+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64(z ^ (z >> 31))
}

// ExecutePlan runs every experiment of the plan as one ExecuteEach job and
// returns the merged results, ordered by run index. The same plan, factory
// and options (besides Workers) yield byte-identical results for any worker
// count. Elapsed is the virtual time of the longest shard timeline, since
// shards run on independent devices concurrently. Each worker runs its
// experiments on its own core.Scratch of opts.State.
//
// Cancelling ctx stops the engine between runs; ExecutePlan then returns
// ctx.Err() and discards partial results.
func ExecutePlan(ctx context.Context, plan methodology.Plan, factory DeviceFactory, opts Options) (*methodology.Results, error) {
	exps := plan.Runs
	out := &methodology.Results{Device: plan.Device}
	if len(exps) == 0 {
		return out, ctx.Err()
	}
	// Each run records where its shard's timeline ends in its own slot, so
	// concurrent jobs share no write.
	opts.State = opts.State.OrFresh()
	ends := core.Resize(&opts.State.Ends, len(exps))
	scratch := opts.State.Scratch(opts.WorkerCount(len(exps)))
	runs, err := ExecuteEach(ctx, len(exps), func(i int) string { return plan.IDs[i] },
		func(_ context.Context, w, i int, dev device.Device, at time.Duration) (*core.Run, error) {
			run, err := exps[i].Run(&scratch[w], dev, at)
			if err == nil {
				ends[i] = at + run.Total + plan.Pause
			}
			return run, err
		}, factory, opts)
	if err != nil {
		return nil, err
	}
	out.Results = core.Resize(&opts.State.Results, len(exps))
	for i, run := range runs {
		out.Results[i] = methodology.Result{Exp: exps[i], Run: run, ID: plan.IDs[i]}
		out.Elapsed = max(out.Elapsed, ends[i])
	}
	if out.Device == "" {
		out.Device = runs[0].Device
	}
	return out, nil
}

// observer returns a serialized per-completion progress callback over total
// units of work, unit i named id(i); a nil Progress yields a no-op, which
// names nothing.
func (o Options) observer(total int, id func(i int) string) func(i int) {
	if o.Progress == nil {
		return func(int) {}
	}
	var mu sync.Mutex
	done := 0
	return func(i int) {
		mu.Lock()
		done++
		o.Progress(done, total, id(i))
		mu.Unlock()
	}
}
