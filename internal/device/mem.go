package device

import (
	"time"
)

// MemDevice is a trivial constant-cost device: per-IO latency plus a
// per-byte transfer cost for each mode. It exists so the benchmark core and
// methodology can be tested against a device with exactly known behaviour,
// and serves as the "null hypothesis" device — a disk-like store with
// uniform writes — that the paper contrasts flash against.
type MemDevice struct {
	name     string
	capacity int64

	ReadLatency  time.Duration
	WriteLatency time.Duration
	ReadPerByte  time.Duration
	WritePerByte time.Duration

	busy time.Duration
}

// NewMemDevice builds a memory device with the given capacity and uniform
// latencies.
func NewMemDevice(name string, capacity int64, readLat, writeLat time.Duration) *MemDevice {
	return &MemDevice{
		name:         name,
		capacity:     capacity,
		ReadLatency:  readLat,
		WriteLatency: writeLat,
	}
}

// Capacity returns the device size in bytes.
func (d *MemDevice) Capacity() int64 { return d.capacity }

// SectorSize returns 512.
func (d *MemDevice) SectorSize() int { return 512 }

// Name returns the device name.
func (d *MemDevice) Name() string { return d.name }

// CloneDevice implements device.Cloneable: the device is a handful of scalar
// fields, so a shallow copy is a full snapshot.
func (d *MemDevice) CloneDevice() Device {
	g := &MemDevice{}
	g.ResetFrom(d)
	return g
}

// ResetFrom implements device.Resettable.
func (d *MemDevice) ResetFrom(src Device) bool {
	s, ok := src.(*MemDevice)
	if ok {
		*d = *s
	}
	return ok
}

// SubmitBatch services the IOs one at a time through SerialSubmitBatch (see
// Device.SubmitBatch for the done encoding).
func (d *MemDevice) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	return SerialSubmitBatch(d, at, ios, done)
}

// Submit services one IO with the configured constant costs.
func (d *MemDevice) Submit(at time.Duration, io IO) (time.Duration, error) {
	if err := checkIO(io, d.capacity); err != nil {
		return 0, err
	}
	start := at
	if d.busy > start {
		start = d.busy
	}
	var cost time.Duration
	if io.Mode == Read {
		cost = d.ReadLatency + time.Duration(io.Size)*d.ReadPerByte
	} else {
		cost = d.WriteLatency + time.Duration(io.Size)*d.WritePerByte
	}
	done := start + cost
	d.busy = done
	return done, nil
}
