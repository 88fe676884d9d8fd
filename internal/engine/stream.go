package engine

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
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
// derived seed and the claimer's previous device to recycle).
//
// The pool is the calling goroutine plus min(Workers, len(jobs))-1 more; each
// claims the next job index from a shared counter until none is left, a job
// fails or ctx is cancelled, so at one worker the jobs run in order on the
// caller and no goroutine starts. A claimer hands each finished job's device
// to its own next job — so no device pool and no lock — and an execution
// allocates at most Workers device stacks when the factory recycles them.
// Cancelling ctx stops execution between jobs and discards partial results;
// the first job error cancels the jobs in flight.
func ExecuteJobs(ctx context.Context, jobs []Job, factory DeviceFactory, opts Options) ([]*core.Run, error) {
	if len(jobs) == 0 {
		return nil, ctx.Err()
	}
	merged := make([]*core.Run, len(jobs))
	observe := opts.observer(len(jobs))
	runCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var (
		next     atomic.Int64 // the next unclaimed job index
		mu       sync.Mutex
		firstErr error
	)
	run := func(i int, reuse device.Device) (device.Device, error) {
		dev, at, err := factory(Shard{Index: i, Seed: shardSeed(opts.Seed, i), Reuse: reuse})
		if err == nil {
			merged[i], err = jobs[i].Run(runCtx, dev, at)
		}
		if err != nil {
			return nil, fmt.Errorf("engine: job %d (%s): %w", i, jobs[i].ID, err)
		}
		observe(jobs[i].ID)
		return dev, nil
	}
	claim := func() {
		var dev device.Device
		for runCtx.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= len(jobs) {
				return
			}
			var err error
			if dev, err = run(i, dev); err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
				cancel()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for range min(opts.workers(), len(jobs)) - 1 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	claim()
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return nil, err // outer cancellation wins over the error it provoked
	}
	if firstErr != nil {
		return nil, firstErr
	}
	return merged, nil
}
