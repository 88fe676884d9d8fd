package engine

import (
	"context"
	"fmt"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
	"uflip/internal/par"
)

// Job is one independent unit of stream execution: a self-contained piece of
// work (a workload segment, a trace slice) run against a private device. The
// engine gives every job its own device built by the DeviceFactory from a
// synthetic shard whose seed derives from (base seed, job index), exactly as
// plan shards do — so job results are a pure function of the job list and
// options, never of the worker count.
type Job struct {
	// ID names the job in progress reports and errors.
	ID string
	// Run executes the job against its private device starting at the given
	// virtual time and returns the measured run. The context is the
	// execution's: a canceled job should stop promptly (retry loops check it
	// between attempts). Run must not retain dev after it returns: the engine
	// offers the device to the worker's next job (Shard.Reuse).
	Run func(ctx context.Context, dev device.Device, startAt time.Duration) (*core.Run, error)
}

// RunFunc executes job i on worker w against the job's private device,
// starting at the given virtual time, as Job.Run does: the context is the
// execution's, and dev must not be retained after the call. w is below
// Options.WorkerCount, and the jobs one worker runs follow each other, so w
// indexes scratch kept per worker.
type RunFunc func(ctx context.Context, w, i int, dev device.Device, startAt time.Duration) (*core.Run, error)

// WorkerCount is how many workers an execution of n jobs under o runs on:
// every worker index a RunFunc receives is below it.
func (o Options) WorkerCount(n int) int { return min(par.Workers(o.Workers), n) }

// ExecuteEach runs jobs 0…n−1 through the worker pool and returns the runs
// ordered by job index — never by completion time — so the merged output is
// byte-identical for any worker count. id names job i in progress reports
// and errors. Each job receives a freshly built device state (factory is
// called with a shard carrying the job's index and derived seed and the
// worker's previous device to recycle).
//
// The pool is par.Each over the jobs, so at one worker the jobs run in order
// on the caller and no goroutine starts. A worker hands each finished job's
// device to its own next job — so no device pool and no lock — and an
// execution allocates at most WorkerCount device stacks when the factory
// recycles them, which opts.Release is then handed. Cancelling ctx stops
// execution between jobs and discards partial results; the first job error
// cancels the jobs in flight.
func ExecuteEach(ctx context.Context, n int, id func(i int) string, run RunFunc, factory DeviceFactory, opts Options) ([]*core.Run, error) {
	merged := core.Resize(&opts.State.OrFresh().Runs, n)
	observe := opts.observer(n, id)
	reuse := make([]device.Device, opts.WorkerCount(n)) // per worker
	err := par.Each(ctx, n, len(reuse), func(ctx context.Context, w, i int) error {
		dev, at, err := factory(Shard{Index: i, Seed: shardSeed(opts.Seed, i), Reuse: reuse[w]})
		if err == nil {
			merged[i], err = run(ctx, w, i, dev, at)
		}
		if err != nil {
			return fmt.Errorf("engine: job %d (%s): %w", i, id(i), err)
		}
		reuse[w] = dev
		observe(i)
		return nil
	})
	if opts.Release != nil {
		opts.Release(reuse)
	}
	if err != nil {
		return nil, err
	}
	return merged, nil
}

// ExecuteJobs is ExecuteEach over a job list: job i is jobs[i].Run, named
// jobs[i].ID.
func ExecuteJobs(ctx context.Context, jobs []Job, factory DeviceFactory, opts Options) ([]*core.Run, error) {
	return ExecuteEach(ctx, len(jobs), func(i int) string { return jobs[i].ID },
		func(ctx context.Context, _, i int, dev device.Device, at time.Duration) (*core.Run, error) {
			return jobs[i].Run(ctx, dev, at)
		}, factory, opts)
}
