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

// ExecuteJobs runs every job through the worker pool and returns the runs
// ordered by job index — never by completion time — so the merged output is
// byte-identical for any worker count. Each job receives a freshly built
// device state (factory is called with a shard carrying the job's index and
// derived seed and the claimer's previous device to recycle).
//
// The pool is par.Each over the jobs, so at one worker the jobs run in order
// on the caller and no goroutine starts. A worker hands each finished job's
// device to its own next job — so no device pool and no lock — and an
// execution allocates at most Workers device stacks when the factory
// recycles them. Cancelling ctx stops execution between jobs and discards
// partial results; the first job error cancels the jobs in flight.
func ExecuteJobs(ctx context.Context, jobs []Job, factory DeviceFactory, opts Options) ([]*core.Run, error) {
	merged := make([]*core.Run, len(jobs))
	observe := opts.observer(len(jobs))
	reuse := make([]device.Device, min(par.Workers(opts.Workers), len(jobs))) // per worker
	err := par.Each(ctx, len(jobs), len(reuse), func(ctx context.Context, w, i int) error {
		dev, at, err := factory(Shard{Index: i, Seed: shardSeed(opts.Seed, i), Reuse: reuse[w]})
		if err == nil {
			merged[i], err = jobs[i].Run(ctx, dev, at)
		}
		if err != nil {
			return fmt.Errorf("engine: job %d (%s): %w", i, jobs[i].ID, err)
		}
		reuse[w] = dev
		observe(jobs[i].ID)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return merged, nil
}
