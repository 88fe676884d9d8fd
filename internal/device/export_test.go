package device

import "fmt"

// ServedIOs returns how many IOs a memory device or an array has serviced:
// what the external tests count to see which members an array reached.
func ServedIOs(d Device) int64 {
	switch d := d.(type) {
	case *MemDevice:
		return d.ios
	case *CompositeDevice:
		return d.st.IOs
	}
	panic(fmt.Sprintf("device: ServedIOs of a %T", d))
}
