package device

import (
	"context"
	"errors"
	"time"
)

// FaultStats counts the faults a submit call site observed and the retries
// it spent recovering from them. The executors aggregate one FaultStats per
// run; it lands in the summary CSV and the report sections.
type FaultStats struct {
	// Faults is the number of failed submit attempts observed (every
	// *BatchError surfaced, retried or not).
	Faults int64
	// Retries is the number of resubmissions performed after retryable
	// faults.
	Retries int64
}

// Add accumulates o into s.
func (s *FaultStats) Add(o FaultStats) {
	s.Faults += o.Faults
	s.Retries += o.Retries
}

// Zero reports whether nothing was counted.
func (s FaultStats) Zero() bool { return s.Faults == 0 && s.Retries == 0 }

// The retry policy of every submit call site: a handful of quick retries,
// enough to ride out probabilistic media errors without masking a genuinely
// broken device. Backoff is simulated time: a retried IO is resubmitted
// RetryBackoff<<(attempt-1) after the point it would otherwise have been
// submitted, so retry schedules are as deterministic as everything else.
const (
	// MaxRetries is the most resubmissions one IO gets.
	MaxRetries = 4
	// RetryBackoff is the first retry's delay; consecutive retries of the
	// same IO double it.
	RetryBackoff = 200 * time.Microsecond
)

// Retryable classifies a fault: media errors are transient (a resubmission
// re-draws the schedule), everything else — a gone device, an out-of-range
// IO — is final. It sees through the wrapping of composites and batch
// errors.
func Retryable(err error) bool {
	return errors.Is(err, ErrMediaRead) || errors.Is(err, ErrMediaWrite)
}

// SubmitBatchRetry is SubmitBatch plus the retry policy: it submits the
// batch, and when an IO fails with a retryable fault it resubmits the tail
// of the batch — the failed IO re-encoded at its resolved submission time
// plus the backoff — up to MaxRetries times per IO. Completions of IOs before
// a failure are final (the SubmitBatch contract keeps done[:Index] valid and
// leaves the tail's input encodings untouched). Faults and retries are
// counted into st when non-nil.
//
// ctx is checked before every attempt so a canceled job stops retrying
// promptly; pass context.Background() where no cancellation applies.
func SubmitBatchRetry(ctx context.Context, d Device, at time.Duration, ios []IO, done []time.Duration, st *FaultStats) error {
	base := at
	offset := 0
	lastIdx, attempts := -1, 0
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		err := d.SubmitBatch(base, ios[offset:], done[offset:])
		if err == nil {
			return nil
		}
		var be *BatchError
		if !errors.As(err, &be) {
			return err
		}
		idx := offset + be.Index
		if st != nil {
			st.Faults++
		}
		if !Retryable(be.Err) {
			return &BatchError{Index: idx, IO: be.IO, Err: be.Err}
		}
		if idx == lastIdx {
			attempts++
		} else {
			lastIdx, attempts = idx, 1
		}
		if attempts > MaxRetries {
			return &BatchError{Index: idx, IO: be.IO, Err: be.Err}
		}
		// Rebase the failed IO to an absolute submission: its resolved
		// time against the previous completion, pushed out by the backoff.
		// Later IOs keep their encodings and resolve against the retried
		// IO's eventual completion as before.
		prev := base
		if idx > 0 {
			prev = done[idx-1]
		}
		done[idx] = resolveSubmit(done[idx], prev) + RetryBackoff<<(attempts-1)
		base = prev
		offset = idx
		if st != nil {
			st.Retries++
		}
	}
}

// DriveBatch is the most IOs one call of a Drive stream's next may return;
// a longer batch panics.
const DriveBatch = 128

// Drive is the one loop that turns a stream of IOs into response times: the
// closed-loop and parallel patterns, trace replay and state enforcement all
// run it. next returns the stream's next batch of at most DriveBatch IOs and
// a window of the caller's response-time array, one slot per IO, holding
// each IO's submission in SubmitBatch's done encoding; an empty batch ends
// the stream. next is given the completion of the previous batch's last IO
// (at on the first call), which is also where the batch's first chained
// submission starts from.
//
// Drive submits each batch under the retry policy (SubmitBatchRetry) and
// overwrites every slot of the window with the IO's response time: its
// completion minus its submission as first encoded, so a retried IO's
// backoff is part of it. It returns the latest completion of the stream (at
// for an empty one, and the latest before the failure on error). A failed IO
// is reported as a *BatchError indexed from the stream's first IO; an error
// from next is returned unchanged, and nothing is submitted after it.
//
//uflint:hotpath
func Drive(ctx context.Context, d Device, at time.Duration, st *FaultStats, next func(last time.Duration) ([]IO, []time.Duration, error)) (time.Duration, error) {
	var enc [DriveBatch]time.Duration
	end, last := at, at
	for base := 0; ; {
		ios, win, err := next(last)
		if err != nil || len(ios) == 0 {
			return end, err
		}
		copy(enc[:len(win)], win)
		if err := SubmitBatchRetry(ctx, d, last, ios, win, st); err != nil {
			var be *BatchError
			if !errors.As(err, &be) {
				return end, err
			}
			for _, c := range win[:be.Index] {
				end = max(end, c)
			}
			return end, &BatchError{Index: base + be.Index, IO: be.IO, Err: be.Err}
		}
		for k, c := range win {
			win[k] = c - resolveSubmit(enc[k], last)
			last = c
			end = max(end, c)
		}
		base += len(ios)
	}
}
