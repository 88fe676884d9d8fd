package engine

import (
	"context"
	"fmt"
	"time"

	"uflip/internal/core"
	"uflip/internal/device"
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
// derived seed and the worker's previous device to recycle).
// Cancelling ctx stops execution between jobs and discards partial results.
//
// With Workers == 1 the jobs run inline in order on the calling goroutine
// (the sequential fallback: same shards, same seeds, same per-shard device
// states), otherwise through the bounded pool. Either way a worker hands
// each finished job's device to its own next job — worker-affine, so no
// pool and no lock — and an execution allocates at most Workers device
// stacks when the factory recycles them.
func ExecuteJobs(ctx context.Context, jobs []Job, factory DeviceFactory, opts Options) ([]*core.Run, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	merged := make([]*core.Run, len(jobs))
	observe := opts.observer(len(jobs))

	runShard := func(ctx context.Context, s Shard) (device.Device, error) {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		job := jobs[s.Index]
		dev, at, err := factory(s)
		if err != nil {
			return nil, fmt.Errorf("engine: job %d (%s): %w", s.Index, job.ID, err)
		}
		run, err := job.Run(ctx, dev, at)
		if err != nil {
			return nil, fmt.Errorf("engine: job %d (%s): %w", s.Index, job.ID, err)
		}
		merged[s.Index] = run
		observe(job.ID)
		return dev, nil
	}

	shards := Partition(len(jobs), opts.Seed)
	if workers := opts.workers(); workers > 1 {
		if err := runPool(ctx, shards, workers, runShard); err != nil {
			return nil, err
		}
		return merged, nil
	}
	var prev device.Device
	for _, s := range shards {
		s.Reuse = prev
		dev, err := runShard(ctx, s)
		if err != nil {
			return nil, err
		}
		prev = dev
	}
	return merged, nil
}
