package device

import (
	"errors"
	"fmt"
	"time"

	"uflip/internal/ftl"
)

// Layout selects how a CompositeDevice distributes IOs over its members.
type Layout int

const (
	// LayoutStripe is RAID-0: logical space is cut into fixed-size chunks
	// assigned round-robin to the members. IOs crossing chunk boundaries
	// split; the per-member pieces of one IO are dispatched concurrently
	// and the IO completes when the slowest member does.
	LayoutStripe Layout = iota
	// LayoutMirror is RAID-1: every write goes to all members, every read
	// to exactly one, chosen by queue-depth scheduling (the member with the
	// fewest outstanding IOs, ties broken round-robin).
	LayoutMirror
	// LayoutConcat appends the members' address spaces back to back; only
	// IOs spanning a member boundary split.
	LayoutConcat
)

// String names the layout as it appears in array specs.
func (l Layout) String() string {
	switch l {
	case LayoutStripe:
		return "stripe"
	case LayoutMirror:
		return "mirror"
	case LayoutConcat:
		return "concat"
	default:
		return fmt.Sprintf("Layout(%d)", int(l))
	}
}

// ParseLayout parses a layout name.
func ParseLayout(s string) (Layout, error) {
	switch s {
	case "stripe":
		return LayoutStripe, nil
	case "mirror":
		return LayoutMirror, nil
	case "concat":
		return LayoutConcat, nil
	}
	return 0, fmt.Errorf("device: unknown layout %q (want stripe, mirror or concat)", s)
}

// CompositeConfig assembles a CompositeDevice.
type CompositeConfig struct {
	// Name identifies the array in reports; empty defaults to the layout
	// name with the member count, e.g. "stripe(2)".
	Name string
	// Layout is the data distribution.
	Layout Layout
	// ChunkBytes is the stripe chunk size (a positive multiple of the
	// sector size; ignored by mirror and concat). Zero defaults to
	// DefaultChunkBytes.
	ChunkBytes int64
	// QueueDepth bounds the IOs outstanding per member (host-side dispatch
	// queue). While a member's queue is full, the composite's dispatcher
	// blocks, delaying the remaining pieces of the current IO and every
	// later IO — the cross-member coupling a bounded queue causes on a real
	// array. The depth also drives mirror read scheduling. Zero defaults
	// to 4.
	QueueDepth int
}

// DefaultChunkBytes is the default stripe chunk size: one flash block.
const DefaultChunkBytes = ftl.BlockBytes

// DefaultQueueDepth is the default per-member queue bound.
const DefaultQueueDepth = 4

// MemberQueue models one member's bounded host-side queue as a ring of the
// last QueueDepth completion times. The entry at Idx is the completion of the
// IO submitted QueueDepth dispatches ago: if it is still in the future, the
// queue is full and the dispatcher must wait for it.
type MemberQueue struct {
	Ring []time.Duration
	Idx  int
}

func (q *MemberQueue) full(at time.Duration) bool { return q.Ring[q.Idx] > at }

// outstanding counts the member IOs not yet complete at time at.
func (q *MemberQueue) outstanding(at time.Duration) int {
	n := 0
	for _, done := range q.Ring {
		if done > at {
			n++
		}
	}
	return n
}

func (q *MemberQueue) push(done time.Duration) {
	q.Ring[q.Idx] = done
	q.Idx++
	if q.Idx == len(q.Ring) {
		q.Idx = 0
	}
}

// CompositeState is everything about a CompositeDevice that changes as it
// runs, beside its members, which keep their own.
type CompositeState struct {
	Queues       []MemberQueue
	DispatchFree time.Duration
	RR           int // mirror read round-robin cursor
	IOs          int64

	// Dead marks members that failed with ErrDeviceGone. Mirrors degrade
	// gracefully: reads route around dead members, writes succeed while at
	// least one replica remains (counted in Degraded). Other layouts have no
	// redundancy, so a gone member fails the IO.
	Dead     []bool
	Degraded int64
}

func (s *CompositeState) copyFrom(src *CompositeState) {
	if len(s.Queues) != len(src.Queues) {
		s.Queues = make([]MemberQueue, len(src.Queues))
	}
	for i, q := range src.Queues {
		s.Queues[i].Ring, s.Queues[i].Idx = append(s.Queues[i].Ring[:0], q.Ring...), q.Idx
	}
	s.DispatchFree, s.RR, s.IOs = src.DispatchFree, src.RR, src.IOs
	s.Dead, s.Degraded = append(s.Dead[:0], src.Dead...), src.Degraded
}

// audit states the array's invariant for one of members members at queue
// depth depth: a ring and a dead mark per member, ring indexes in range,
// clocks and counts non-negative.
func (s *CompositeState) audit(members, depth int) error {
	switch {
	case len(s.Queues) != members || len(s.Dead) != members:
		return fmt.Errorf("device: composite state has %d queues and %d dead marks, array %d members", len(s.Queues), len(s.Dead), members)
	case s.DispatchFree < 0 || s.RR < 0 || s.IOs < 0 || s.Degraded < 0 || s.Degraded > s.IOs:
		return fmt.Errorf("device: composite state has a clock or count out of range (dispatch %v, cursor %d, %d IOs, %d degraded)", s.DispatchFree, s.RR, s.IOs, s.Degraded)
	}
	for i, q := range s.Queues {
		if len(q.Ring) != depth || q.Idx < 0 || q.Idx >= depth {
			return fmt.Errorf("device: composite state queue %d is a ring of %d at index %d, array depth %d", i, len(q.Ring), q.Idx, depth)
		}
	}
	return nil
}

// compositeConfig is what a CompositeDevice is built as: the spec plus what
// construction derives from it and from the members.
type compositeConfig struct {
	CompositeConfig
	capacity int64
	// bounds are the concat member boundaries: member m covers
	// [bounds[m], bounds[m+1]). LayoutConcat only; never written after
	// construction, so copies share it.
	bounds []int64
}

// CompositeDevice fans IOs out over N member devices according to a layout,
// with a bounded per-member queue model, in fully deterministic simulated
// time. It implements device.Device, and device.Cloneable when every member
// does — so the engine's Master/CloningFactory shard a composite exactly like
// a single simulated device.
//
// Timing model: the composite dispatches the member-pieces ("fragments") of
// each IO serially through a single dispatch clock, in ascending order of the
// first logical byte each member receives. Dispatching to a member whose
// queue holds QueueDepth outstanding IOs blocks the dispatcher until the
// oldest completes, which delays the fragments and IOs behind it — so queue
// pressure on one member is felt by the whole array, as on a real host. The
// IO completes when its slowest fragment does. A single-member stripe,
// mirror or concat is byte-identical to the raw member device: the lone
// fragment is the whole IO and the admission gate never changes the member's
// service start (a FIFO member queues identically on either side of the
// gate).
type CompositeDevice struct {
	cfg     compositeConfig
	members []Device
	st      CompositeState

	// frags is the per-Submit fragment scratch, reused so the steady-state
	// Submit path does not allocate; dead between calls.
	frags []fragment
}

// fragment is one member's piece of a host IO. split produces fragments in
// ascending order of the first logical byte each member serves, which is the
// order the dispatcher walks them.
type fragment struct {
	member int
	off    int64 // member-relative byte offset
	size   int64
}

// NewComposite builds a composite over the members, which must all share the
// composite's 512-byte sector size. Capacity depends on the layout: stripe
// exposes members × the largest whole number of chunks every member holds,
// mirror the smallest member, concat the sum of all members.
func NewComposite(cfg CompositeConfig, members []Device) (*CompositeDevice, error) {
	if len(members) == 0 {
		return nil, fmt.Errorf("device: composite needs at least one member")
	}
	if cfg.ChunkBytes == 0 {
		cfg.ChunkBytes = DefaultChunkBytes
	}
	if cfg.QueueDepth == 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	switch {
	case cfg.QueueDepth < 1:
		return nil, fmt.Errorf("device: composite queue depth %d must be >= 1", cfg.QueueDepth)
	case cfg.ChunkBytes < 512 || cfg.ChunkBytes%512 != 0:
		return nil, fmt.Errorf("device: stripe chunk %d must be a positive multiple of the 512B sector", cfg.ChunkBytes)
	}
	d := &CompositeDevice{
		cfg:     compositeConfig{CompositeConfig: cfg},
		members: members,
		st:      CompositeState{Queues: make([]MemberQueue, len(members)), Dead: make([]bool, len(members))},
		frags:   make([]fragment, 0, len(members)+2),
	}
	for i := range d.st.Queues {
		d.st.Queues[i].Ring = make([]time.Duration, cfg.QueueDepth)
	}
	minCap := members[0].Capacity()
	for i, m := range members {
		if m == nil {
			return nil, fmt.Errorf("device: composite member %d is nil", i)
		}
		if m.SectorSize() != 512 {
			return nil, fmt.Errorf("device: composite member %d (%s) sector size %d, want 512", i, m.Name(), m.SectorSize())
		}
		if c := m.Capacity(); c < minCap {
			minCap = c
		}
	}
	switch cfg.Layout {
	case LayoutStripe:
		rows := minCap / d.cfg.ChunkBytes
		if rows < 1 {
			return nil, fmt.Errorf("device: stripe members smaller than one %d-byte chunk", d.cfg.ChunkBytes)
		}
		d.cfg.capacity = int64(len(members)) * rows * d.cfg.ChunkBytes
	case LayoutMirror:
		d.cfg.capacity = minCap
	case LayoutConcat:
		d.cfg.bounds = make([]int64, len(members)+1)
		for i, m := range members {
			d.cfg.bounds[i+1] = d.cfg.bounds[i] + m.Capacity()
		}
		d.cfg.capacity = d.cfg.bounds[len(members)]
	default:
		return nil, fmt.Errorf("device: unknown layout %d", cfg.Layout)
	}
	if d.cfg.Name == "" {
		d.cfg.Name = fmt.Sprintf("%s(%d)", cfg.Layout, len(members))
	}
	return d, nil
}

// Capacity returns the composite's logical size.
func (d *CompositeDevice) Capacity() int64 { return d.cfg.capacity }

// SectorSize returns 512.
func (d *CompositeDevice) SectorSize() int { return 512 }

// Name returns the configured array name.
func (d *CompositeDevice) Name() string { return d.cfg.Name }

// Layout returns the configured layout.
func (d *CompositeDevice) Layout() Layout { return d.cfg.Layout }

// Members returns the member count.
func (d *CompositeDevice) Members() int { return len(d.members) }

// Member returns member i (for tests and reports).
func (d *CompositeDevice) Member(i int) Device { return d.members[i] }

// QueueDepth returns the per-member queue bound.
func (d *CompositeDevice) QueueDepth() int { return d.cfg.QueueDepth }

// IOs returns the number of host IOs serviced.
func (d *CompositeDevice) IOs() int64 { return d.st.IOs }

// Dead reports whether member i has failed with ErrDeviceGone.
func (d *CompositeDevice) Dead(i int) bool { return d.st.Dead[i] }

// DegradedWrites returns how many mirror writes completed with at least one
// replica missing.
func (d *CompositeDevice) DegradedWrites() int64 { return d.st.Degraded }

// ResetFrom implements device.Resettable: d becomes a deep copy of src — a
// CompositeDevice — with every member reset in place or cloned
// (ResetOrClone) and the rings reused; d may be a zero value.
func (d *CompositeDevice) ResetFrom(src Device) bool {
	s, ok := src.(*CompositeDevice)
	if !ok {
		return false
	}
	if len(d.members) != len(s.members) {
		d.members = make([]Device, len(s.members))
	}
	for i, m := range s.members {
		d.members[i] = ResetOrClone(d.members[i], m)
	}
	d.cfg = s.cfg
	d.st.copyFrom(&s.st)
	if cap(d.frags) < cap(s.frags) {
		d.frags = make([]fragment, 0, cap(s.frags))
	}
	return true
}

// CloneDevice implements device.Cloneable: a deep copy of the whole array —
// every member device, the queue rings, the dispatch clock and the scheduling
// cursor. It panics if a member is not itself Cloneable (composites built from
// simulator profiles always are).
func (d *CompositeDevice) CloneDevice() Device {
	g := &CompositeDevice{}
	g.ResetFrom(d)
	return g
}

// split computes the member fragments of io into d.frags, ordered by the
// first logical byte each member serves (the order a real scatter-gather
// dispatch walks them).
func (d *CompositeDevice) split(io IO) {
	d.frags = d.frags[:0]
	switch d.cfg.Layout {
	case LayoutMirror:
		if io.Mode == Read {
			m := d.pickMirrorRead()
			d.frags = append(d.frags, fragment{member: m, off: io.Off, size: io.Size})
			return
		}
		for m := range d.members {
			d.frags = append(d.frags, fragment{member: m, off: io.Off, size: io.Size})
		}
	case LayoutConcat:
		off, end := io.Off, io.Off+io.Size
		for m := 0; m < len(d.members) && off < end; m++ {
			lo, hi := d.cfg.bounds[m], d.cfg.bounds[m+1]
			if end <= lo || off >= hi {
				continue
			}
			s, e := off, end
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			d.frags = append(d.frags, fragment{member: m, off: s - lo, size: e - s})
		}
	case LayoutStripe:
		// Round-robin chunk layout: chunk c lives on member c%N at member
		// offset (c/N)*chunk. Consecutive chunks of one member are adjacent
		// in member space, so all of one member's pieces of a host IO
		// coalesce into a single contiguous member IO.
		n := int64(len(d.members))
		c0 := io.Off / d.cfg.ChunkBytes
		c1 := (io.Off + io.Size - 1) / d.cfg.ChunkBytes
		for c := c0; c <= c1; c++ {
			lo, hi := c*d.cfg.ChunkBytes, (c+1)*d.cfg.ChunkBytes
			s, e := io.Off, io.Off+io.Size
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			m := int(c % n)
			moff := (c/n)*d.cfg.ChunkBytes + (s - lo)
			// Extend the member's previous fragment when contiguous.
			if k := len(d.frags) - 1; k >= 0 {
				merged := false
				for j := k; j >= 0 && j > k-len(d.members); j-- {
					if d.frags[j].member == m {
						if d.frags[j].off+d.frags[j].size == moff {
							d.frags[j].size += e - s
							merged = true
						}
						break
					}
				}
				if merged {
					continue
				}
			}
			d.frags = append(d.frags, fragment{member: m, off: moff, size: e - s})
		}
	}
}

// pickMirrorRead returns the live member with the fewest outstanding IOs at
// the dispatcher's current time, scanning round-robin from a rotating cursor
// so an idle array still alternates members deterministically. It returns -1
// when every member is dead. With no dead members the picks are identical to
// the pre-degradation scheduler.
func (d *CompositeDevice) pickMirrorRead() int {
	at := d.st.DispatchFree
	n := len(d.members)
	best, bestOut := -1, 0
	for i := 0; i < n; i++ {
		m := (d.st.RR + i) % n
		if d.st.Dead[m] {
			continue
		}
		out := d.st.Queues[m].outstanding(at)
		if best < 0 || out < bestOut {
			best, bestOut = m, out
		}
		if bestOut == 0 {
			break
		}
	}
	d.st.RR++
	return best
}

// SubmitBatch services a slice of IOs through SerialSubmitBatch (see
// Device.SubmitBatch for the done encoding): each IO is split and its
// fragments dispatched before the next IO's, exactly as by Submit.
func (d *CompositeDevice) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	return SerialSubmitBatch(d, at, ios, done)
}

// Submit services one IO at virtual time at: the IO is split into member
// fragments, the fragments are dispatched serially through the bounded
// per-member queues, and the IO completes when the slowest fragment does.
// Mirrors degrade gracefully when a member fails with ErrDeviceGone: the
// member is marked dead, reads re-pick among the live members, and writes
// complete as long as one replica took the data.
func (d *CompositeDevice) Submit(at time.Duration, io IO) (time.Duration, error) {
	if err := checkIO(io, d.cfg.capacity); err != nil {
		return 0, err
	}
	d.st.IOs++
	if d.st.DispatchFree < at {
		d.st.DispatchFree = at
	}
	d.split(io)
	mirror := d.cfg.Layout == LayoutMirror
	if mirror && io.Mode == Read && d.frags[0].member < 0 {
		return 0, fmt.Errorf("device %s: all mirror members gone: %w", d.cfg.Name, ErrDeviceGone)
	}
	var done time.Duration
	replicas := 0
	for i := range d.frags {
		f := &d.frags[i]
		if mirror && io.Mode == Write && d.st.Dead[f.member] {
			continue
		}
	submit:
		q := &d.st.Queues[f.member]
		admit := d.st.DispatchFree
		// A full queue blocks the dispatcher until the oldest outstanding
		// IO on this member completes.
		if q.full(admit) {
			admit = q.Ring[q.Idx]
		}
		end, err := d.members[f.member].Submit(admit, IO{Mode: io.Mode, Off: f.off, Size: f.size})
		if err != nil {
			if mirror && errors.Is(err, ErrDeviceGone) {
				d.st.Dead[f.member] = true
				if io.Mode == Read {
					if m := d.pickMirrorRead(); m >= 0 {
						f.member = m
						goto submit
					}
					return 0, fmt.Errorf("device %s: all mirror members gone: %w", d.cfg.Name, ErrDeviceGone)
				}
				continue // write: drop the replica, the survivors carry it
			}
			return 0, fmt.Errorf("device %s: member %d: %w", d.cfg.Name, f.member, err)
		}
		q.push(end)
		d.st.DispatchFree = admit
		if end > done {
			done = end
		}
		replicas++
	}
	if mirror && io.Mode == Write {
		if replicas == 0 {
			return 0, fmt.Errorf("device %s: all mirror members gone: %w", d.cfg.Name, ErrDeviceGone)
		}
		if replicas < len(d.members) {
			d.st.Degraded++
		}
	}
	return done, nil
}
