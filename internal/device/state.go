package device

import (
	"fmt"

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
