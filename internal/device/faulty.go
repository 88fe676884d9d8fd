package device

import (
	"errors"
	"fmt"
	"time"
)

// Typed fault errors. FaultyDevice surfaces every injected fault as one of
// these (wrapped with the device name and op index), so call sites can
// classify with errors.Is: media errors are transient and retryable, a gone
// device is permanent.
var (
	// ErrMediaRead is an unrecoverable read of a flash page — transient from
	// the host's point of view (a retry re-reads and usually succeeds).
	ErrMediaRead = errors.New("device: media read error")
	// ErrMediaWrite is a failed program operation — transient like
	// ErrMediaRead.
	ErrMediaWrite = errors.New("device: media write error")
	// ErrDeviceGone is the sticky failure mode: the device dropped off the
	// bus and every subsequent IO fails. Mirror arrays route reads around a
	// gone member and report writes as (partially) successful while at least
	// one replica remains.
	ErrDeviceGone = errors.New("device: device gone")
)

// FaultConfig is the deterministic fault schedule of a FaultyDevice. The
// zero value injects nothing, and an unarmed FaultyDevice forwards every
// call verbatim to the wrapped device — the differential oracle the tests
// pin byte-identical to the raw device.
//
// Probabilistic triggers draw from a schedule that is a pure function of
// (Seed, op index): the same config over the same IO sequence injects the
// same faults on every run, on every clone, at any worker count.
type FaultConfig struct {
	// Name identifies the device in reports; empty defaults to the wrapped
	// device's name.
	Name string
	// Seed selects the fault schedule.
	Seed int64
	// ReadErrRate / WriteErrRate are per-op probabilities of failing a
	// read (ErrMediaRead) or write (ErrMediaWrite) without touching the
	// wrapped device.
	ReadErrRate  float64
	WriteErrRate float64
	// Spike adds itself to the completion time of ops drawn with
	// probability SpikeRate — a service-time inflation after the device has
	// accepted the IO (an FTL hiccup, an erase stumbled upon).
	Spike     time.Duration
	SpikeRate float64
	// Stall delays the submission of ops drawn with probability StallRate
	// by Stall before the wrapped device sees them — a transient bus/queue
	// stall in front of the device.
	Stall     time.Duration
	StallRate float64
	// FailAt, when positive, makes the device go permanently dead starting
	// at op index FailAt (0-based count of ops serviced): that op and every
	// later one fail with ErrDeviceGone.
	FailAt int64
	// ErrOps lists explicit 0-based op indices that fail with a media
	// error (read ops with ErrMediaRead, writes with ErrMediaWrite). A
	// retried IO arrives under a fresh op index, so explicit triggers are
	// transient.
	ErrOps []int64
	// ErrOff, when positive, fails every IO whose byte range contains
	// offset ErrOff with a media error — a sticky bad region that retries
	// cannot clear (offset 0 cannot be targeted).
	ErrOff int64
}

// armed reports whether any fault source is configured. An unarmed wrapper
// takes the pure forwarding fast path.
func (c *FaultConfig) armed() bool {
	return c.ReadErrRate > 0 || c.WriteErrRate > 0 ||
		(c.SpikeRate > 0 && c.Spike > 0) || (c.StallRate > 0 && c.Stall > 0) ||
		c.FailAt > 0 || len(c.ErrOps) > 0 || c.ErrOff > 0
}

// InjectionCounts tallies what a FaultyDevice actually injected, per kind.
type InjectionCounts struct {
	ReadErrs  int64
	WriteErrs int64
	Spikes    int64
	Stalls    int64
	Gone      int64
}

// Category salts decorrelate the per-op draws of independent fault kinds:
// whether op k spikes is independent of whether it errors.
const (
	saltReadErr  = 0x9E3779B97F4A7C15
	saltWriteErr = 0xC2B2AE3D27D4EB4F
	saltSpike    = 0x165667B19E3779F9
	saltStall    = 0x27D4EB2F165667C5
)

// faultDraw maps (seed, op, category) to a uniform draw in [0, 1) with a
// splitmix64-style finalizer — a pure function, so the schedule needs no
// mutable RNG state and clones resume it exactly where the master left off.
func faultDraw(seed, op int64, salt uint64) float64 {
	z := uint64(seed) ^ (uint64(op)+1)*0x9E3779B97F4A7C15 ^ salt
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	return float64(z>>11) / (1 << 53)
}

// FaultyState is everything about a FaultyDevice that changes as it runs,
// beside the wrapped device, which keeps its own: the schedule position, so
// that a copy resumes the fault schedule exactly where the original stood, and
// the tallies.
type FaultyState struct {
	Op       int64
	Dead     bool
	Injected InjectionCounts
}

// audit states the wrapper's invariant: an op injects each kind of fault at
// most once, and the device is dead exactly when it has refused an op for it.
func (s *FaultyState) audit() error {
	for _, n := range [...]int64{s.Injected.ReadErrs, s.Injected.WriteErrs, s.Injected.Spikes, s.Injected.Stalls, s.Injected.Gone} {
		if n < 0 || n > s.Op {
			return fmt.Errorf("device: faulty state tallies %+v over %d ops", s.Injected, s.Op)
		}
	}
	if s.Dead != (s.Injected.Gone > 0) {
		return fmt.Errorf("device: faulty state is dead=%v after refusing %d ops as gone", s.Dead, s.Injected.Gone)
	}
	return nil
}

// FaultyDevice wraps a device and injects faults from the deterministic
// schedule of its FaultConfig. It implements Device, Cloneable (when the
// wrapped device does) and the SubmitBatch contract: a failing IO aborts
// the batch with a *BatchError and done[:Index] stays valid.
//
// The schedule is indexed by the op counter — the number of IOs the wrapper
// has serviced — which is part of its state, so shards cloned from an enforced
// master replay the exact schedule a sequential run would see at that point.
type FaultyDevice struct {
	inner Device
	cfg   faultyConfig
	st    FaultyState
}

// faultyConfig is what a FaultyDevice is built as.
type faultyConfig struct {
	FaultConfig
	name string // FaultConfig.Name, or the wrapped device's
}

// NewFaulty wraps dev with the fault schedule of cfg.
func NewFaulty(cfg FaultConfig, dev Device) *FaultyDevice {
	name := cfg.Name
	if name == "" {
		name = dev.Name()
	}
	return &FaultyDevice{inner: dev, cfg: faultyConfig{FaultConfig: cfg, name: name}}
}

// Inner returns the wrapped device.
func (f *FaultyDevice) Inner() Device { return f.inner }

// Capacity forwards to the wrapped device.
func (f *FaultyDevice) Capacity() int64 { return f.inner.Capacity() }

// SectorSize forwards to the wrapped device.
func (f *FaultyDevice) SectorSize() int { return f.inner.SectorSize() }

// Name returns the configured name (the canonical faulty(...) spec when
// built from one), or the wrapped device's name.
func (f *FaultyDevice) Name() string { return f.cfg.name }

// Submit services one IO through the fault schedule.
func (f *FaultyDevice) Submit(at time.Duration, io IO) (time.Duration, error) {
	if !f.cfg.armed() {
		return f.inner.Submit(at, io)
	}
	return f.service(at, io)
}

// SubmitBatch services a batch (see Device.SubmitBatch for the done
// encoding). Unarmed wrappers forward to the wrapped device's SubmitBatch;
// armed ones run SerialSubmitBatch so every op draws from the schedule,
// aborting with a *BatchError whose done[:Index] prefix is valid and whose
// done[Index:] suffix still holds the input encodings — which is what lets
// SubmitBatchRetry resubmit the tail.
func (f *FaultyDevice) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	if !f.cfg.armed() {
		return f.inner.SubmitBatch(at, ios, done)
	}
	return SerialSubmitBatch(f, at, ios, done)
}

// service is the armed path: consume one op index, inject whatever the
// schedule holds for it, and forward to the wrapped device. Media errors and
// gone-device failures fail fast without touching the wrapped device, so a
// retried IO re-draws under a fresh op index. An IO no device would take
// consumes none.
func (f *FaultyDevice) service(at time.Duration, io IO) (time.Duration, error) {
	if err := checkIO(io, f.inner.Capacity()); err != nil {
		return 0, err
	}
	op := f.st.Op
	f.st.Op++
	if f.st.Dead || (f.cfg.FailAt > 0 && op >= f.cfg.FailAt) {
		f.st.Dead = true
		f.st.Injected.Gone++
		return 0, fmt.Errorf("device %s: op %d: %w", f.cfg.name, op, ErrDeviceGone)
	}
	if f.mediaErr(op, io) {
		if io.Mode == Read {
			f.st.Injected.ReadErrs++
			return 0, fmt.Errorf("device %s: op %d: %w", f.cfg.name, op, ErrMediaRead)
		}
		f.st.Injected.WriteErrs++
		return 0, fmt.Errorf("device %s: op %d: %w", f.cfg.name, op, ErrMediaWrite)
	}
	if f.cfg.StallRate > 0 && f.cfg.Stall > 0 && faultDraw(f.cfg.Seed, op, saltStall) < f.cfg.StallRate {
		f.st.Injected.Stalls++
		at += f.cfg.Stall
	}
	end, err := f.inner.Submit(at, io)
	if err != nil {
		return 0, err
	}
	if f.cfg.SpikeRate > 0 && f.cfg.Spike > 0 && faultDraw(f.cfg.Seed, op, saltSpike) < f.cfg.SpikeRate {
		f.st.Injected.Spikes++
		end += f.cfg.Spike
	}
	return end, nil
}

// mediaErr decides whether op fails with a media error: an explicit op
// trigger, the sticky bad offset, or the per-mode probability draw.
func (f *FaultyDevice) mediaErr(op int64, io IO) bool {
	for _, t := range f.cfg.ErrOps {
		if t == op {
			return true
		}
	}
	if f.cfg.ErrOff > 0 && io.Off <= f.cfg.ErrOff && f.cfg.ErrOff < io.Off+io.Size {
		return true
	}
	if io.Mode == Read {
		return f.cfg.ReadErrRate > 0 && faultDraw(f.cfg.Seed, op, saltReadErr) < f.cfg.ReadErrRate
	}
	return f.cfg.WriteErrRate > 0 && faultDraw(f.cfg.Seed, op, saltWriteErr) < f.cfg.WriteErrRate
}

// CloneDevice deep-copies the wrapper: the wrapped device, the op counter,
// the sticky-dead flag and the injection tallies, so a clone continues the
// schedule exactly where the original stood. It panics if the wrapped device
// is not cloneable, like the composite.
func (f *FaultyDevice) CloneDevice() Device {
	g := &FaultyDevice{}
	g.ResetFrom(f)
	return g
}

// ResetFrom implements device.Resettable: f becomes a deep copy of src — a
// FaultyDevice — schedule position included, over its wrapped device reset
// in place or cloned (ResetOrClone); f may be a zero value.
func (f *FaultyDevice) ResetFrom(src Device) bool {
	s, ok := src.(*FaultyDevice)
	if !ok {
		return false
	}
	f.inner = ResetOrClone(f.inner, s.inner)
	f.cfg, f.st = s.cfg, s.st
	return true
}
