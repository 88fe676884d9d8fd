// Package par is the program's one fan-out. Every compute job that runs on
// several goroutines — the engine's jobs, the .jsonl and .utr encoders, the
// .utr verifier, a replay's tail — runs through Each or Ordered,
// so the rules every output's worker-count independence rests on are written
// once: indexes are handed out in order, the first error stops the work,
// results come back by index and never by completion time, no goroutine
// starts at one worker, and none outlives the call.
package par

import (
	"context"
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the worker count n asks for: n itself, or GOMAXPROCS when n <= 0.
func Workers(n int) int {
	if n <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return n
}

// Each calls fn once for every index in [0, n). The indexes are handed out in
// order to the calling goroutine and to min(workers, n)-1 goroutines Each
// starts, so at one worker they run in order on the caller and no goroutine
// starts. An index handed out is always run, so when index i runs every
// index below it runs too, even after an error. worker is the caller's 0 or
// a started goroutine's 1, 2, …, for scratch kept per worker; the calls one
// worker makes follow each other.
//
// The first error fn returns is recorded, then the context given to fn is
// cancelled and no further index is handed out; calls in flight finish, and
// Each returns that error — never a cancellation it provoked. A cancelled ctx
// stops the hand-out too, and Each then returns ctx.Err(), which wins over
// any error the cancellation provoked. No goroutine outlives the call.
func Each(ctx context.Context, n, workers int, fn func(ctx context.Context, worker, i int) error) error {
	if min(workers, n) <= 1 {
		for i := 0; i < n && ctx.Err() == nil; i++ {
			if err := fn(ctx, 0, i); err != nil && ctx.Err() == nil {
				return err
			}
		}
		return ctx.Err()
	}
	run, cancel := context.WithCancel(ctx)
	defer cancel()
	var (
		next     atomic.Int64 // the next index to hand out
		first    sync.Once
		firstErr error
	)
	claim := func(worker int) {
		for run.Err() == nil {
			i := int(next.Add(1) - 1)
			if i >= n {
				return
			}
			if err := fn(run, worker, i); err != nil {
				first.Do(func() { firstErr = err })
				cancel()
				return
			}
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim(w)
		}()
	}
	claim(0)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return err
	}
	return firstErr
}

// Ordered calls work(slot, i) and then emit(slot, i) for every index i in
// [0, n): work on min(workers, n) goroutines Ordered starts, emit on the
// calling goroutine in index order. The slot, in [0, slots) (slots >= 1),
// names the caller's buffer that work fills and emit reads; it is handed to
// the next work only after emit returned, so the slots are the call's whole
// memory whatever n is. At one worker, or for one index, no goroutine
// starts: work and emit alternate on the caller in slot 0.
//
// The lowest-index error wins, from work or emit: emit is not called for it
// or any index after it, no further work starts, and Ordered returns it once
// the work in flight has finished. No goroutine outlives the call.
func Ordered(n, workers, slots int, work, emit func(slot, i int) error) error {
	if workers <= 1 || n <= 1 {
		for i := range n {
			if err := work(0, i); err != nil {
				return err
			}
			if err := emit(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	// Index i fills slot i%slots, and is handed out only once index
	// i-slots was emitted: todo never holds more than slots indexes, and
	// each ready channel at most the one result of its slot.
	todo := make(chan int, slots)
	ready := make([]chan error, slots)
	for s := range ready {
		ready[s] = make(chan error, 1)
	}
	var (
		stop atomic.Bool // set once the caller returns: skip what is left
		wg   sync.WaitGroup
	)
	for range min(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range todo {
				if !stop.Load() {
					ready[i%slots] <- work(i%slots, i)
				}
			}
		}()
	}
	defer func() {
		stop.Store(true)
		close(todo)
		wg.Wait()
	}()
	for i, sent := 0, 0; i < n; i++ {
		for ; sent < min(n, i+slots); sent++ {
			todo <- sent
		}
		err := <-ready[i%slots]
		if err == nil {
			err = emit(i%slots, i)
		}
		if err != nil {
			return err
		}
	}
	return nil
}
