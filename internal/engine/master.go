package engine

import (
	"sync"
	"time"

	"uflip/internal/device"
)

// Master caches one fully prepared ("well-enforced", Section 4.1) device and
// hands out independent copies of its state. Building and enforcing a device
// is by far the dominant cost of a shard — a random fill writes the whole
// logical capacity — while a copy only moves the in-memory state, so a Master
// turns N per-shard enforcements into one enforcement plus N copies; and its
// Factory makes most of those copies into a device the worker already owns
// (device.Resettable: the previous shard's device is reset from the master
// in place), so an execution allocates one device stack per worker, not one
// per shard.
//
// The build function runs lazily, once, on the first request and its result
// (or error) is cached; Clone and the factory are safe for concurrent use
// from worker goroutines, and since copying only reads the master, concurrent
// copies run in parallel instead of queueing behind each other.
// Because every shard starts from the same master state, the merged results
// are still a pure function of the plan and options — and byte-identical to
// rebuilding and re-enforcing each shard's device with the same seed.
type Master struct {
	build func() (device.Cloneable, time.Duration, error)

	once sync.Once // guards the one build; dev, at and err are read-only after it
	dev  device.Cloneable
	at   time.Duration
	err  error
}

// NewMaster returns a Master over build, which must produce a fully prepared
// device and the virtual time at which measurements may start (typically the
// end of state enforcement plus the inter-run pause).
func NewMaster(build func() (device.Cloneable, time.Duration, error)) *Master {
	return &Master{build: build}
}

// Clone returns an independent deep copy of the master device (building the
// master first if needed) and the prepared start time.
func (m *Master) Clone() (device.Device, time.Duration, error) {
	return m.copyInto(nil)
}

// copyInto returns the master's state in reuse when that device can be reset
// from the master, and in a fresh clone otherwise (reuse nil included).
func (m *Master) copyInto(reuse device.Device) (device.Device, time.Duration, error) {
	m.once.Do(func() { m.dev, m.at, m.err = m.build() })
	if m.err != nil {
		return nil, 0, m.err
	}
	return device.ResetOrClone(reuse, m.dev), m.at, nil
}

// Factory adapts the master to the engine's DeviceFactory: every shard gets
// the state of the one enforced master instead of a rebuilt device — reset
// into the device the worker's previous shard finished with (Shard.Reuse)
// when there is one that supports it, cloned otherwise.
func (m *Master) Factory() DeviceFactory {
	return func(s Shard) (device.Device, time.Duration, error) {
		return m.copyInto(s.Reuse)
	}
}

// CloningFactory is a convenience over NewMaster(build).Factory() for
// callers that never need the master itself.
func CloningFactory(build func() (device.Cloneable, time.Duration, error)) DeviceFactory {
	return NewMaster(build).Factory()
}
