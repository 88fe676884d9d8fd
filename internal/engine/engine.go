// Package engine executes uFLIP benchmark plans in parallel. The paper's
// methodology (Section 4) produces plans of many mutually independent runs:
// each run measures one experiment after the device state has been enforced,
// and runs are separated by pauses (or full state resets) precisely so they
// do not interfere. The engine exploits that independence: it partitions a
// methodology.Plan into deterministic shards, gives every shard a private
// simulated device in a freshly built state (so runs never share mutable FTL
// state; a worker's finished device is offered to its next shard to be
// recycled, Shard.Reuse) and its own derived RNG seed, executes the shards
// across a bounded worker pool, and merges the per-run results ordered by
// the run's index in the plan — never by completion time — so the merged
// output is byte-identical for any worker count.
package engine

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"uflip/internal/device"
	"uflip/internal/methodology"
)

// Shard is an independent unit of scheduling: one plan run (or one stream
// job) executed on a private device instance. Shard boundaries depend only on
// the plan, never on the worker count, which is what keeps parallel execution
// deterministic.
type Shard struct {
	// Index is the shard's position in the partition, and the index of the
	// run it executes: the plan's run (methodology.Plan.Runs) or the job.
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
	// Workers == 1 is the sequential fallback: shards execute inline, in
	// order, on the calling goroutine.
	Workers int
	// Seed is the base seed from which Shard.Seed values are derived. It
	// reaches results only through a factory that reads Shard.Seed; the
	// production factories do not (their enforcement seed is configured on
	// the master).
	Seed int64
	// Progress, when non-nil, is invoked after every completed run.
	Progress ProgressFunc
}

func (o Options) workers() int {
	if o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
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

// Partition returns the shards of n independent runs, shard i running run i
// with its own derived seed: a pure function of n and the base seed. A plan's
// runs are its run steps (methodology.Plan.Runs), each on its own device in
// the freshly enforced state — exactly what a StepReset asks for, so reset
// steps need no shard of their own.
func Partition(n int, baseSeed int64) []Shard {
	shards := make([]Shard, n)
	for i := range shards {
		shards[i] = Shard{Index: i, Seed: shardSeed(baseSeed, i)}
	}
	return shards
}

// ExecutePlan runs every experiment of the plan through the worker pool and
// returns the merged results, ordered by run index. The same plan, factory
// and options (besides Workers) yield byte-identical results for any worker
// count. Elapsed is the virtual time of the longest shard timeline, since
// shards run on independent devices concurrently.
//
// Cancelling ctx stops the engine between runs; ExecutePlan then returns
// ctx.Err() and discards partial results.
func ExecutePlan(ctx context.Context, plan methodology.Plan, factory DeviceFactory, opts Options) (*methodology.Results, error) {
	exps := plan.Runs()
	out := &methodology.Results{Device: plan.Device}
	if len(exps) == 0 {
		return out, ctx.Err()
	}
	merged := make([]methodology.Result, len(exps))
	ends := make([]time.Duration, len(exps))
	observe := opts.observer(len(exps))

	runShard := func(ctx context.Context, s Shard) (device.Device, error) {
		dev, at, err := factory(s)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %w", s.Index, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		e := exps[s.Index]
		run, err := e.Run(dev, at)
		if err != nil {
			return nil, fmt.Errorf("engine: shard %d: %s: %w", s.Index, e.ID(), err)
		}
		merged[s.Index] = methodology.Result{Exp: e, Run: run}
		ends[s.Index] = at + run.Total + plan.Pause
		observe(e.ID())
		return dev, nil
	}

	if err := executeShards(ctx, Partition(len(exps), opts.Seed), opts.workers(), runShard); err != nil {
		return nil, err
	}

	out.Results = merged
	if out.Device == "" {
		out.Device = merged[0].Run.Device
	}
	for _, end := range ends {
		if end > out.Elapsed {
			out.Elapsed = end
		}
	}
	return out, nil
}

// observer returns a serialized per-completion progress callback over total
// units of work; a nil Progress yields a no-op.
func (o Options) observer(total int) func(id string) {
	if o.Progress == nil {
		return func(string) {}
	}
	var mu sync.Mutex
	done := 0
	return func(id string) {
		mu.Lock()
		done++
		o.Progress(done, total, id)
		mu.Unlock()
	}
}

// runShardFunc executes one shard and returns the device it ran on, which the
// same worker's next shard is offered as Shard.Reuse.
type runShardFunc func(context.Context, Shard) (device.Device, error)

// executeShards runs the shards inline in partition order when workers == 1
// (the sequential fallback: same shards, same seeds, same per-shard device
// states) and through the bounded pool otherwise. Either way a worker hands
// each finished shard's device to its own next shard — worker-affine, so no
// pool and no lock — and an execution allocates at most `workers` device
// stacks when the factory recycles them. Shared by plan execution and the
// stream-job executor so pool, cancellation and progress semantics cannot
// diverge.
func executeShards(ctx context.Context, shards []Shard, workers int, run runShardFunc) error {
	if workers == 1 {
		var prev device.Device
		for _, s := range shards {
			if err := ctx.Err(); err != nil {
				return err
			}
			s.Reuse = prev
			dev, err := run(ctx, s)
			if err != nil {
				return err
			}
			prev = dev
		}
		return nil
	}
	return runPool(ctx, shards, workers, run)
}

// runPool dispatches shards to a bounded pool of workers, cancelling the
// remaining work on the first error.
func runPool(ctx context.Context, shards []Shard, workers int, run runShardFunc) error {
	if workers > len(shards) {
		workers = len(shards)
	}
	poolCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	jobs := make(chan Shard)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var prev device.Device
			for s := range jobs {
				if poolCtx.Err() != nil {
					continue // drain without running
				}
				s.Reuse = prev
				dev, err := run(poolCtx, s)
				if err != nil {
					fail(err)
				}
				prev = dev
			}
		}()
	}
	for _, s := range shards {
		jobs <- s
	}
	close(jobs)
	wg.Wait()

	if err := ctx.Err(); err != nil {
		return err // outer cancellation wins over the error it provoked
	}
	return firstErr
}
