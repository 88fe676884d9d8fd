package par_test

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"uflip/internal/par"
)

// settled fails the test unless the goroutine count is back to before: a
// goroutine that has signalled its WaitGroup may take a moment to be gone,
// one that still runs never is.
func settled(t *testing.T, what string, before int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before; runtime.Gosched() {
		if time.Now().After(deadline) {
			t.Fatalf("%s: %d goroutines, %d before the call", what, runtime.NumGoroutine(), before)
		}
	}
}

// TestEachRunsEveryIndexOnce: every index runs once, each worker's calls
// follow each other (its slice is appended to without a lock, which -race
// checks), worker indexes stay below min(workers, n), and at one worker the
// indexes run in order on the caller with no goroutine started.
func TestEachRunsEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 8} {
		for _, n := range []int{0, 1, 5, 100} {
			before := runtime.NumGoroutine()
			ran := make([]int, n)
			byWorker := make([][]int, workers)
			err := par.Each(context.Background(), n, workers, func(_ context.Context, w, i int) error {
				if workers == 1 && runtime.NumGoroutine() != before {
					return fmt.Errorf("index %d: %d goroutines at one worker, %d before", i, runtime.NumGoroutine(), before)
				}
				if w >= min(workers, n) {
					return fmt.Errorf("index %d on worker %d of %d", i, w, min(workers, n))
				}
				ran[i]++
				byWorker[w] = append(byWorker[w], i)
				return nil
			})
			if err != nil {
				t.Fatalf("workers %d, n %d: %v", workers, n, err)
			}
			for i, c := range ran {
				if c != 1 {
					t.Fatalf("workers %d, n %d: index %d ran %d times", workers, n, i, c)
				}
			}
			for w, got := range byWorker {
				if !slices.IsSorted(got) {
					t.Fatalf("workers %d, n %d: worker %d claimed %v, out of order", workers, n, w, got)
				}
			}
			settled(t, fmt.Sprintf("workers %d, n %d", workers, n), before)
		}
	}
}

// TestEachFirstErrorWins: the first error stops the hand-out and is what
// Each returns, not the cancellation it provokes in the calls in flight;
// nothing is left running.
func TestEachFirstErrorWins(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		before := runtime.NumGoroutine()
		var calls atomic.Int64
		err := par.Each(context.Background(), 1000, workers, func(ctx context.Context, _, i int) error {
			calls.Add(1)
			if i == 3 {
				return boom
			}
			if i > 3 {
				<-ctx.Done() // only the failure cancels it
				return ctx.Err()
			}
			return nil
		})
		if err != boom {
			t.Fatalf("workers %d: Each returned %v, want boom", workers, err)
		}
		// Indexes 0-3, and at most one more per other worker: each waits
		// for the cancellation, then stops.
		if c := calls.Load(); c < 4 || c > int64(3+workers) {
			t.Fatalf("workers %d: %d calls after the failure at index 3", workers, c)
		}
		settled(t, fmt.Sprintf("workers %d", workers), before)
	}
}

// TestEachCallerCancellationWins: a cancelled ctx stops the hand-out, and
// Each returns ctx.Err() over the errors it provoked.
func TestEachCallerCancellationWins(t *testing.T) {
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		var calls atomic.Int64
		err := par.Each(ctx, 1000, workers, func(ctx context.Context, _, i int) error {
			calls.Add(1)
			if i == 2 {
				cancel()
			}
			if ctx.Err() != nil {
				return fmt.Errorf("index %d: %w", i, ctx.Err())
			}
			return nil
		})
		cancel()
		if err != context.Canceled {
			t.Fatalf("workers %d: Each returned %v, want the bare context.Canceled", workers, err)
		}
		if c := calls.Load(); workers == 1 && c != 3 {
			t.Fatalf("one worker: %d calls, the cancellation came at the third", c)
		}
	}
}

// checkedRing is an Ordered caller that records, per slot, the index its
// work last filled it with, and fails when a slot is handed out before the
// index using it was emitted or emit comes out of order.
type checkedRing struct {
	slots   int
	owner   []int        // slot -> index whose work filled it
	emitted atomic.Int64 // indexes emitted so far
	order   []int
}

func newCheckedRing(slots int) *checkedRing {
	return &checkedRing{slots: slots, owner: make([]int, slots)}
}

func (r *checkedRing) work(slot, i int) error {
	if slot < 0 || slot >= r.slots {
		return fmt.Errorf("index %d got slot %d of %d", i, slot, r.slots)
	}
	// Index i may use a slot only once every index up to i-slots was emitted.
	if e := r.emitted.Load(); int64(i-r.slots) >= e {
		return fmt.Errorf("index %d started with %d emitted: slot %d reused early", i, e, slot)
	}
	r.owner[slot] = i
	return nil
}

func (r *checkedRing) emit(slot, i int) error {
	if r.owner[slot] != i {
		return fmt.Errorf("emit %d: slot %d holds index %d", i, slot, r.owner[slot])
	}
	r.order = append(r.order, i)
	r.emitted.Add(1)
	return nil
}

// TestOrderedEmitsInIndexOrder: emit sees every index once, in order, in
// the slot its work filled, and no slot is handed on before it was emitted
// (-race checks the slot accesses); at one worker no goroutine starts, and
// none is left after the call.
func TestOrderedEmitsInIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, n := range []int{0, 1, 2, 7, 300} {
			before := runtime.NumGoroutine()
			r := newCheckedRing(2 * workers)
			work := r.work
			if workers == 1 {
				work = func(slot, i int) error {
					if runtime.NumGoroutine() != before {
						return fmt.Errorf("index %d: %d goroutines at one worker, %d before", i, runtime.NumGoroutine(), before)
					}
					return r.work(slot, i)
				}
			}
			if err := par.Ordered(n, workers, r.slots, work, r.emit); err != nil {
				t.Fatalf("workers %d, n %d: %v", workers, n, err)
			}
			for i, got := range r.order {
				if got != i {
					t.Fatalf("workers %d, n %d: emitted %v", workers, n, r.order)
				}
			}
			if len(r.order) != n {
				t.Fatalf("workers %d, n %d: %d emitted", workers, n, len(r.order))
			}
			settled(t, fmt.Sprintf("workers %d, n %d", workers, n), before)
		}
	}
}

// TestOrderedLowestIndexErrorWins: whichever failure happens first in time,
// Ordered returns the lowest-index one, from work or from emit, and emits
// nothing from its index on; nothing is left running.
func TestOrderedLowestIndexErrorWins(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, c := range []struct {
			workFails, emitFails []int
			want                 int
		}{
			{workFails: []int{5, 9}, want: 5},
			{workFails: []int{40}, emitFails: []int{17}, want: 17},
			{workFails: []int{17}, emitFails: []int{40}, want: 17},
			{workFails: []int{0}, want: 0},
			{emitFails: []int{299}, want: 299},
		} {
			before := runtime.NumGoroutine()
			r := newCheckedRing(4 * workers)
			work := func(slot, i int) error {
				if slices.Contains(c.workFails, i) {
					if i == c.want {
						time.Sleep(time.Millisecond) // let a later failure come first
					}
					return fmt.Errorf("work %d", i)
				}
				return r.work(slot, i)
			}
			emit := func(slot, i int) error {
				if slices.Contains(c.emitFails, i) {
					return fmt.Errorf("emit %d", i)
				}
				return r.emit(slot, i)
			}
			err := par.Ordered(300, workers, r.slots, work, emit)
			what := fmt.Sprintf("workers %d, work fails at %v, emit at %v", workers, c.workFails, c.emitFails)
			if err == nil || (err.Error() != fmt.Sprintf("work %d", c.want) && err.Error() != fmt.Sprintf("emit %d", c.want)) {
				t.Fatalf("%s: Ordered returned %v, want the failure at %d", what, err, c.want)
			}
			if len(r.order) != c.want {
				t.Fatalf("%s: emitted %d indexes, want the %d before the failure", what, len(r.order), c.want)
			}
			settled(t, what, before)
		}
	}
}

// TestWorkers: n itself, or GOMAXPROCS for n <= 0.
func TestWorkers(t *testing.T) {
	for n, want := range map[int]int{-3: runtime.GOMAXPROCS(0), 0: runtime.GOMAXPROCS(0), 1: 1, 7: 7} {
		if got := par.Workers(n); got != want {
			t.Errorf("Workers(%d) = %d, want %d", n, got, want)
		}
	}
}
