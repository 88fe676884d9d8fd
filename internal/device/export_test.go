package device

import (
	"fmt"
	"time"
)

// Counter wraps a device and counts the IOs it served: what the tests count
// to see which members an array, or the device under a fault injector,
// reached.
type Counter struct {
	Device
	IOs int64
}

// Submit counts the IO once the wrapped device has served it.
func (c *Counter) Submit(at time.Duration, io IO) (time.Duration, error) {
	done, err := c.Device.Submit(at, io)
	if err == nil {
		c.IOs++
	}
	return done, err
}

// SubmitBatch submits the IOs one at a time, each counted.
func (c *Counter) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	return SerialSubmitBatch(c, at, ios, done)
}

// CloneDevice clones the wrapped device and copies the count, so arrays of
// counters clone too.
func (c *Counter) CloneDevice() Device {
	return &Counter{Device: ResetOrClone(nil, c.Device), IOs: c.IOs}
}

// NewCountedMem wraps a new memory device in a Counter.
func NewCountedMem(name string, capacity int64, readLat, writeLat time.Duration) *Counter {
	return &Counter{Device: NewMemDevice(name, capacity, readLat, writeLat)}
}

// ServedIOs returns how many IOs a counted device or an array has serviced.
func ServedIOs(d Device) int64 {
	switch d := d.(type) {
	case *Counter:
		return d.IOs
	case *CompositeDevice:
		return d.st.IOs
	}
	panic(fmt.Sprintf("device: ServedIOs of a %T", d))
}
