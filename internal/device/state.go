package device

import (
	"fmt"
	"reflect"

	"uflip/internal/ftl"
)

// DeviceState is the complete state of a simulated device as a tree of
// pointers to the structs its layers run on. One of Sim, Composite and Faulty
// is set, naming the device, with the state of what it stands on beside it:
// the translation stack, the members in order, the wrapped device. The state
// store saves an enforced device in this form and restores it into a freshly
// built one of the same spec. The functions below type-switch on the devices
// whose whole state lives in memory; files and block devices keep theirs
// elsewhere.
type DeviceState struct {
	Sim *SimState
	Top *ftl.TranslatorState

	Composite *CompositeState
	Members   []*DeviceState

	Faulty *FaultyState
	Inner  *DeviceState
}

// SnapshotDevice captures the complete state of a simulated device or
// composite array. The snapshot shares no memory with the device.
func SnapshotDevice(d Device) (*DeviceState, error) {
	switch d := d.(type) {
	case *SimDevice:
		top, err := ftl.SnapshotTranslator(d.top)
		st := d.st
		return &DeviceState{Sim: &st, Top: top}, err
	case *CompositeDevice:
		s := &DeviceState{Composite: &CompositeState{}, Members: make([]*DeviceState, len(d.members))}
		s.Composite.copyFrom(&d.st)
		for i, m := range d.members {
			var err error
			if s.Members[i], err = SnapshotDevice(m); err != nil {
				return nil, fmt.Errorf("device: composite member %d (%s): %w", i, m.Name(), err)
			}
		}
		return s, nil
	case *FaultyDevice:
		inner, err := SnapshotDevice(d.inner)
		st := d.st
		return &DeviceState{Faulty: &st, Inner: inner}, err
	}
	return nil, fmt.Errorf("device: %T cannot be snapshotted or restored", d)
}

// Counters is the work a device's layers have counted since it was built,
// read off the state they run on and summed over an array's members.
type Counters struct {
	ftl.Stats                      // the flash translation layers'
	Cache          ftl.CacheStats  // the write caches'
	Injected       InjectionCounts // the fault wrappers'
	DegradedWrites int64           // mirror writes that missed a replica
	DeadMembers    int64           // array members gone with ErrDeviceGone
}

// CountersOf reads the counters of every layer of d, walking it as
// SnapshotDevice does. It is false for a device that keeps its state
// elsewhere, or stands on one or on a translator foreign to the simulator.
func CountersOf(d Device) (c Counters, ok bool) {
	switch d := d.(type) {
	case *SimDevice:
		tr := d.top
		if wc, cached := tr.(*ftl.WriteCache); cached {
			c.Cache, tr = wc.Stats(), wc.Inner()
		}
		if f, mapped := tr.(interface{ Stats() ftl.Stats }); mapped {
			c.Stats, ok = f.Stats(), true
		}
	case *CompositeDevice:
		for i, m := range d.members {
			mc, counted := CountersOf(m)
			if !counted {
				return c, false
			}
			c = c.plus(mc, 1)
			if d.st.Dead[i] {
				c.DeadMembers++
			}
		}
		c.DegradedWrites += d.st.Degraded
		ok = true
	case *FaultyDevice:
		c, ok = CountersOf(d.inner)
		c = c.plus(Counters{Injected: d.st.Injected}, 1)
	}
	return c, ok
}

// Sub returns c − o: what a device counted between two readings.
func (c Counters) Sub(o Counters) Counters { return c.plus(o, -1) }

// plus returns c + sign·o.
func (c Counters) plus(o Counters, sign int64) Counters {
	addInts(reflect.ValueOf(&c).Elem(), reflect.ValueOf(o), sign)
	return c
}

// addInts adds sign·src to dst, two structs of one type whose every leaf is
// an int64, as every counter of Counters is.
func addInts(dst, src reflect.Value, sign int64) {
	for i := range dst.NumField() {
		if f := dst.Field(i); f.Kind() == reflect.Struct {
			addInts(f, src.Field(i), sign)
		} else {
			f.SetInt(f.Int() + sign*src.Field(i).Int())
		}
	}
}

// checkDevice runs every layer's validator over s against the device d: nil
// exactly when s is a state a device built like d could be in.
func checkDevice(d Device, s *DeviceState) error {
	switch d := d.(type) {
	case *SimDevice:
		if s == nil || s.Sim == nil {
			return fmt.Errorf("device: state is not a simulated device's")
		}
		if err := s.Sim.audit(); err != nil {
			return err
		}
		return ftl.CheckTranslator(d.top, s.Top)
	case *CompositeDevice:
		if s == nil || s.Composite == nil || len(s.Members) != len(d.members) {
			return fmt.Errorf("device: state is not that of a composite array of %d members", len(d.members))
		}
		for i, m := range d.members {
			if err := checkDevice(m, s.Members[i]); err != nil {
				return fmt.Errorf("device: composite member %d: %w", i, err)
			}
		}
		return s.Composite.audit(len(d.members), d.cfg.QueueDepth)
	case *FaultyDevice:
		if s == nil || s.Faulty == nil {
			return fmt.Errorf("device: state is not a faulty wrapper's")
		}
		if err := checkDevice(d.inner, s.Inner); err != nil {
			return fmt.Errorf("device: faulty-wrapped: %w", err)
		}
		return s.Faulty.audit()
	}
	return fmt.Errorf("device: %T cannot be snapshotted or restored", d)
}

// loadDevice copies s, which passed checkDevice(d, s), into d.
func loadDevice(d Device, s *DeviceState) {
	switch d := d.(type) {
	case *SimDevice:
		ftl.LoadTranslator(d.top, s.Top)
		d.st = *s.Sim
	case *CompositeDevice:
		for i, m := range d.members {
			loadDevice(m, s.Members[i])
		}
		d.st.copyFrom(s.Composite)
	case *FaultyDevice:
		loadDevice(d.inner, s.Inner)
		d.st = *s.Faulty
	}
}

// RestoreDevice overwrites the state of d — a freshly built device of the
// same profile or array spec — with a copy of s. Every layer's validator runs
// over the whole tree first: a state any of them refuses is an error and
// leaves d untouched.
func RestoreDevice(d Device, s *DeviceState) error {
	if err := checkDevice(d, s); err != nil {
		return err
	}
	loadDevice(d, s)
	return nil
}

// Audit checks every layer's invariant on the state d is in.
func Audit(d Device) error {
	s, err := SnapshotDevice(d)
	if err != nil {
		return err
	}
	return checkDevice(d, s)
}
