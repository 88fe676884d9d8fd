// Package device defines the block-device abstraction the uFLIP benchmark
// drives, and provides three implementations: SimDevice (a full flash device
// simulator: interconnect + controller RAM + flash translation layer + NAND
// chips), MemDevice (a constant-latency toy for tests), and FileDevice (a
// real file or block special, measured with the wall clock).
//
// Devices are driven in virtual time: the caller submits each IO with its
// submission timestamp (run-relative), and the device returns the completion
// timestamp. Response time is completion minus submission. This mirrors how
// the paper's FlashIO tool measures each IO individually, but with perfectly
// repeatable results for simulated devices.
package device

import (
	"errors"
	"fmt"
	"time"
)

// Mode is the IO mode attribute of Section 3.1: read or write.
type Mode int

const (
	// Read is a read IO.
	Read Mode = iota
	// Write is a write IO.
	Write
)

// String returns "R" or "W".
func (m Mode) String() string {
	if m == Read {
		return "R"
	}
	return "W"
}

// IO is one request: a mode, a byte offset (the LBA attribute scaled to
// bytes) and a size.
type IO struct {
	Mode Mode
	Off  int64
	Size int64
}

// Errors returned by devices.
var (
	ErrOutOfRange = errors.New("device: IO beyond device capacity")
	ErrClosed     = errors.New("device: closed")
)

// Device is a block device measured in virtual (run-relative) time.
//
// Submit services one IO submitted at time `at` and returns its completion
// time; at must be non-decreasing across calls except through independent
// processes coordinated by the parallel runner, which still submits in
// global time order. Implementations may queue: completion-at is at least
// `at` plus the service time, later if the device was busy.
//
// SubmitBatch services a whole slice of IOs in one call — the batch-first
// hot path the executors use. done is an in/out parameter of the same
// length as ios: on entry done[i] encodes IO i's submission time, on return
// it holds IO i's completion time. Two encodings cover both execution
// styles of the methodology:
//
//   - done[i] >= 0: IO i is submitted at the absolute time done[i]
//     (open-loop, arrival times known a priori — trace replay).
//   - done[i] < 0: IO i is submitted at the completion time of IO i-1
//     (`at` for i == 0) plus the closed-loop gap -done[i]-1. ChainNext
//     submits back-to-back; ChainAfter(gap) encodes pause/burst gaps.
//
// The contract every implementation must honor — and the differential
// oracle the tests pin — is that SubmitBatch is byte-identical to resolving
// each submission time the same way and calling Submit once per IO. A
// failing IO aborts the batch with a *BatchError carrying its index; the
// completions of every earlier IO are already in done.
type Device interface {
	Submit(at time.Duration, io IO) (time.Duration, error)
	SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error
	// Capacity returns the device's logical size in bytes.
	Capacity() int64
	// SectorSize returns the addressing granularity in bytes (512 for
	// every device in the paper).
	SectorSize() int
	// Name identifies the device in reports.
	Name() string
}

// ChainNext is the done[i] input value that submits IO i at the completion
// of the previous IO (at `at` for the batch's first IO) with no gap — the
// closed-loop submission of core.Execute.
const ChainNext = time.Duration(-1)

// ChainAfter encodes a closed-loop submission with a pause: IO i is
// submitted gap after the previous IO's completion. ChainAfter(0) ==
// ChainNext. gap must be non-negative.
func ChainAfter(gap time.Duration) time.Duration { return -gap - 1 }

// resolveSubmit decodes a done[i] input value into the absolute submission
// time, given the previous IO's completion (or the batch's `at` for i == 0).
func resolveSubmit(in, prev time.Duration) time.Duration {
	if in >= 0 {
		return in
	}
	return prev + (-in - 1)
}

// BatchError reports which IO of a SubmitBatch failed, wrapping the
// underlying device error. Callers that report per-IO context unwrap it via
// errors.As.
type BatchError struct {
	// Index is the position of the failing IO within the batch.
	Index int
	// IO is the failing request.
	IO IO
	// Err is the device's error.
	Err error
}

// Error formats the batch position and the underlying error.
func (e *BatchError) Error() string {
	return fmt.Sprintf("batch IO %d (%s off=%d size=%d): %v", e.Index, e.IO.Mode, e.IO.Off, e.IO.Size, e.Err)
}

// Unwrap returns the underlying device error.
func (e *BatchError) Unwrap() error { return e.Err }

// checkBatch validates the ios/done pairing every SubmitBatch requires.
func checkBatch(ios []IO, done []time.Duration) error {
	if len(ios) != len(done) {
		return fmt.Errorf("device: batch has %d IOs but %d done slots", len(ios), len(done))
	}
	return nil
}

// SerialSubmitBatch implements the SubmitBatch contract with one Submit call
// per IO. It is the fallback for devices without a native batch path
// (MemDevice, FileDevice) and the reference implementation the equivalence
// tests compare native batch paths against.
func SerialSubmitBatch(d Device, at time.Duration, ios []IO, done []time.Duration) error {
	if err := checkBatch(ios, done); err != nil {
		return err
	}
	prev := at
	for i := range ios {
		end, err := d.Submit(resolveSubmit(done[i], prev), ios[i])
		if err != nil {
			return &BatchError{Index: i, IO: ios[i], Err: err}
		}
		done[i] = end
		prev = end
	}
	return nil
}

// PerIO wraps a device so its SubmitBatch degrades to the serial per-IO
// loop, hiding any native batch path. The executors behave identically over
// a PerIO-wrapped device — that is the differential oracle pinning the
// batch pipeline byte-identical to one-virtual-call-per-IO.
type PerIO struct {
	Inner Device
}

// NewPerIO wraps dev in the per-IO oracle.
func NewPerIO(dev Device) *PerIO { return &PerIO{Inner: dev} }

// Submit forwards to the wrapped device.
func (p *PerIO) Submit(at time.Duration, io IO) (time.Duration, error) {
	return p.Inner.Submit(at, io)
}

// SubmitBatch always takes the serial per-IO path.
func (p *PerIO) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	return SerialSubmitBatch(p.Inner, at, ios, done)
}

// Capacity forwards to the wrapped device.
func (p *PerIO) Capacity() int64 { return p.Inner.Capacity() }

// SectorSize forwards to the wrapped device.
func (p *PerIO) SectorSize() int { return p.Inner.SectorSize() }

// Name forwards to the wrapped device.
func (p *PerIO) Name() string { return p.Inner.Name() }

// CloneDevice clones the wrapped device and re-wraps it, so PerIO devices
// flow through the engine's cloning masters like any simulated device. It
// panics if the wrapped device is not cloneable, exactly like the composite.
func (p *PerIO) CloneDevice() Device {
	g := &PerIO{}
	g.ResetFrom(p)
	return g
}

// ResetFrom implements device.Resettable over the wrapped device.
func (p *PerIO) ResetFrom(src Device) bool {
	s, ok := src.(*PerIO)
	if ok {
		p.Inner = ResetOrClone(p.Inner, s.Inner)
	}
	return ok
}

// Cloneable is a Device whose full state can be snapshotted. CloneDevice
// returns a deep copy that evolves independently: submitting the same IO
// sequence to the clone and to the original yields identical completion
// times. Simulated devices are cloneable; real devices are not.
type Cloneable interface {
	Device
	CloneDevice() Device
}

// Resettable is a Device that can be overwritten in place with the complete
// state of another: ResetFrom(src) leaves the receiver exactly as a fresh
// src.CloneDevice() would be — independent of src, identical completions —
// but reuses the receiver's buffers instead of allocating a new stack. It
// reports false, leaving the receiver unusable, when src is of another
// concrete type. The receiver must be quiescent (no IO in flight) and src is
// only read, so any number of devices may reset from one src concurrently.
// This is how the engine recycles a worker's finished shard device for its
// next shard; every simulated device and wrapper in this package implements
// it.
type Resettable interface {
	Device
	ResetFrom(src Device) bool
}

// ResetOrClone returns an independent deep copy of src: dst itself, reset in
// place, when dst is Resettable and accepts src; a fresh clone otherwise
// (dst nil included), in which case it panics if src is not Cloneable — like
// the wrappers' CloneDevice. After the call dst must not be used except
// through the returned value.
func ResetOrClone(dst, src Device) Device {
	if r, ok := dst.(Resettable); ok && r.ResetFrom(src) {
		return dst
	}
	c, ok := src.(Cloneable)
	if !ok {
		panic(fmt.Sprintf("device: %s is not cloneable", src.Name()))
	}
	return c.CloneDevice()
}

// checkIO validates a request: a read or a write, in bounds and of positive
// size. Zero-size IOs are rejected uniformly (no pattern, generator or trace
// produces them), which keeps every device — raw or composite — behaving
// identically at the edges. Devices call it before they change any state, so
// a refused IO leaves none behind.
func checkIO(io IO, capacity int64) error {
	if io.Mode != Read && io.Mode != Write {
		return fmt.Errorf("device: unknown mode %d", io.Mode)
	}
	if io.Off < 0 || io.Size <= 0 || io.Off+io.Size > capacity {
		return ErrOutOfRange
	}
	return nil
}
