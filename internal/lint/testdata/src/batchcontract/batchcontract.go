// Package batchcontract is the golden fixture of the batchcontract
// analyzer: discarded SubmitBatch errors and BatchError type assertions
// are reported; handled errors and errors.As extraction are not.
package batchcontract

import "errors"

// BatchError mirrors the device package's batch abort error.
type BatchError struct {
	Index int
	Err   error
}

func (e *BatchError) Error() string { return e.Err.Error() }
func (e *BatchError) Unwrap() error { return e.Err }

// dev is a stand-in batch device.
type dev struct{}

func (dev) SubmitBatch(ios []int, done []int) error      { return nil }
func (dev) SubmitBatchRetry(ios []int, done []int) error { return nil }

// Drive stands in for device.Drive: the stream's error is the last result.
func Drive(d dev, next func(last int) ([]int, []int, error)) (int, error) { return 0, nil }

func discard(d dev, ios, done []int) {
	d.SubmitBatch(ios, done)            // want `SubmitBatch error discarded`
	go d.SubmitBatch(ios, done)         // want `SubmitBatch error discarded by go/defer`
	defer d.SubmitBatchRetry(ios, done) // want `SubmitBatchRetry error discarded by go/defer`
	_ = d.SubmitBatch(ios, done)        // want `SubmitBatch error assigned to _`
}

func drive(d dev, next func(int) ([]int, []int, error)) int {
	Drive(d, next)           // want `Drive error discarded`
	end, _ := Drive(d, next) // want `Drive error assigned to _`
	return end
}

func driven(d dev, next func(int) ([]int, []int, error)) (int, error) {
	end, err := Drive(d, next)
	if err != nil {
		return 0, err
	}
	return end, nil
}

func handled(d dev, ios, done []int) error {
	if err := d.SubmitBatch(ios, done); err != nil {
		return err
	}
	return d.SubmitBatchRetry(ios, done)
}

func assert(err error) (int, bool) {
	be, ok := err.(*BatchError) // want `type assertion on \*BatchError`
	if !ok {
		return 0, false
	}
	return be.Index, true
}

func asErr(err error) (int, bool) {
	var be *BatchError
	if errors.As(err, &be) {
		return be.Index, true
	}
	return 0, false
}

func classify(err error) string {
	switch err.(type) {
	case *BatchError: // want `type switch on \*BatchError`
		return "batch"
	default:
		return "other"
	}
}
