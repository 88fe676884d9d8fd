package device

import (
	"errors"
	"fmt"
	"time"
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
	// sector size; ignored by mirror and concat). Zero defaults to 128 KiB,
	// the flash-block granularity of every profile in the repository.
	ChunkBytes int64
	// QueueDepth bounds the IOs outstanding per member (host-side dispatch
	// queue). While a member's queue is full, the composite's dispatcher
	// blocks, delaying the remaining pieces of the current IO and every
	// later IO — the cross-member coupling a bounded queue causes on a real
	// array. The depth also drives mirror read scheduling. Zero defaults
	// to 4.
	QueueDepth int
}

// DefaultChunkBytes is the default stripe chunk size.
const DefaultChunkBytes = 128 * 1024

// DefaultQueueDepth is the default per-member queue bound.
const DefaultQueueDepth = 4

// memberQueue models one member's bounded host-side queue as a ring of the
// last QueueDepth completion times. The entry at idx is the completion of the
// IO submitted QueueDepth dispatches ago: if it is still in the future, the
// queue is full and the dispatcher must wait for it.
type memberQueue struct {
	ring []time.Duration
	idx  int
}

func (q *memberQueue) full(at time.Duration) bool { return q.ring[q.idx] > at }

// outstanding counts the member IOs not yet complete at time at.
func (q *memberQueue) outstanding(at time.Duration) int {
	n := 0
	for _, done := range q.ring {
		if done > at {
			n++
		}
	}
	return n
}

func (q *memberQueue) push(done time.Duration) {
	q.ring[q.idx] = done
	q.idx++
	if q.idx == len(q.ring) {
		q.idx = 0
	}
}

func (q *memberQueue) resetFrom(src *memberQueue) {
	q.ring, q.idx = append(q.ring[:0], src.ring...), src.idx
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
	cfg      CompositeConfig //uflint:shared — immutable spec; snapshots restore into a same-spec build
	members  []Device
	capacity int64 //uflint:shared — derived from the members at construction

	// Stripe geometry (LayoutStripe only).
	chunk int64 //uflint:shared — immutable stripe geometry
	// Concat member boundaries: member m covers [bounds[m], bounds[m+1]).
	bounds []int64 //uflint:shared — derived from the members at construction

	queues       []memberQueue
	dispatchFree time.Duration
	rr           int // mirror read round-robin cursor

	// dead marks members that failed with ErrDeviceGone. Mirrors degrade
	// gracefully: reads route around dead members, writes succeed while at
	// least one replica remains (counted in degraded). Other layouts have no
	// redundancy, so a gone member fails the IO.
	dead     []bool
	degraded int64

	// frags is the per-Submit fragment scratch, reused so the steady-state
	// Submit path does not allocate.
	frags []fragment //uflint:scratch — per-Submit buffer, dead between calls

	ios int64
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
		cfg:     cfg,
		members: members,
		chunk:   cfg.ChunkBytes,
		queues:  make([]memberQueue, len(members)),
		dead:    make([]bool, len(members)),
		frags:   make([]fragment, 0, len(members)+2),
	}
	for i := range d.queues {
		d.queues[i] = memberQueue{ring: make([]time.Duration, cfg.QueueDepth)}
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
		rows := minCap / d.chunk
		if rows < 1 {
			return nil, fmt.Errorf("device: stripe members smaller than one %d-byte chunk", d.chunk)
		}
		d.capacity = int64(len(members)) * rows * d.chunk
	case LayoutMirror:
		d.capacity = minCap
	case LayoutConcat:
		d.bounds = make([]int64, len(members)+1)
		for i, m := range members {
			d.bounds[i+1] = d.bounds[i] + m.Capacity()
		}
		d.capacity = d.bounds[len(members)]
	default:
		return nil, fmt.Errorf("device: unknown layout %d", cfg.Layout)
	}
	if d.cfg.Name == "" {
		d.cfg.Name = fmt.Sprintf("%s(%d)", cfg.Layout, len(members))
	}
	return d, nil
}

// Capacity returns the composite's logical size.
func (d *CompositeDevice) Capacity() int64 { return d.capacity }

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
func (d *CompositeDevice) IOs() int64 { return d.ios }

// Dead reports whether member i has failed with ErrDeviceGone.
func (d *CompositeDevice) Dead(i int) bool { return d.dead[i] }

// DegradedWrites returns how many mirror writes completed with at least one
// replica missing.
func (d *CompositeDevice) DegradedWrites() int64 { return d.degraded }

// Clone returns a deep copy of the whole array: every member device, the
// queue rings, the dispatch clock and the scheduling cursor. It panics if a
// member does not implement device.Cloneable (composites built from
// simulator profiles always do).
func (d *CompositeDevice) Clone() *CompositeDevice {
	g := &CompositeDevice{}
	g.ResetFrom(d)
	return g
}

// ResetFrom implements device.Resettable: d becomes a deep copy of src — a
// CompositeDevice — with every member reset in place or cloned
// (ResetOrClone) and the rings reused; d may be a zero value.
func (d *CompositeDevice) ResetFrom(src Device) bool {
	s, ok := src.(*CompositeDevice)
	if !ok {
		return false
	}
	members, queues, dead, frags := d.members, d.queues, d.dead, d.frags
	if len(members) != len(s.members) {
		members, queues = make([]Device, len(s.members)), make([]memberQueue, len(s.members))
	}
	for i := range s.members {
		members[i] = ResetOrClone(members[i], s.members[i])
		queues[i].resetFrom(&s.queues[i])
	}
	if cap(frags) < cap(s.frags) {
		frags = make([]fragment, 0, cap(s.frags))
	}
	*d = *s
	d.members, d.queues, d.dead, d.frags = members, queues, append(dead[:0], s.dead...), frags[:0]
	return true
}

// CloneDevice implements device.Cloneable.
func (d *CompositeDevice) CloneDevice() Device { return d.Clone() }

// Drain advances past all member background work, returning the time at
// which the whole array is quiescent. Members without a Drain method
// contribute their last known completion.
func (d *CompositeDevice) Drain() time.Duration {
	var max time.Duration
	for i, m := range d.members {
		var end time.Duration
		if dr, ok := m.(interface{ Drain() time.Duration }); ok {
			end = dr.Drain()
		} else {
			for _, done := range d.queues[i].ring {
				if done > end {
					end = done
				}
			}
		}
		if end > max {
			max = end
		}
	}
	return max
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
			lo, hi := d.bounds[m], d.bounds[m+1]
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
		c0 := io.Off / d.chunk
		c1 := (io.Off + io.Size - 1) / d.chunk
		for c := c0; c <= c1; c++ {
			lo, hi := c*d.chunk, (c+1)*d.chunk
			s, e := io.Off, io.Off+io.Size
			if s < lo {
				s = lo
			}
			if e > hi {
				e = hi
			}
			m := int(c % n)
			moff := (c/n)*d.chunk + (s - lo)
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
	at := d.dispatchFree
	n := len(d.members)
	best, bestOut := -1, 0
	for i := 0; i < n; i++ {
		m := (d.rr + i) % n
		if d.dead[m] {
			continue
		}
		out := d.queues[m].outstanding(at)
		if best < 0 || out < bestOut {
			best, bestOut = m, out
		}
		if bestOut == 0 {
			break
		}
	}
	d.rr++
	return best
}

// Submit services one IO at virtual time at: the IO is split into member
// fragments, the fragments are dispatched serially through the bounded
// per-member queues, and the IO completes when the slowest fragment does.
func (d *CompositeDevice) Submit(at time.Duration, io IO) (time.Duration, error) {
	return d.service(at, io)
}

// SubmitBatch services a slice of IOs in one call (see Device.SubmitBatch
// for the done encoding): the whole batch is fragmented through the shared
// split scratch and drained through the per-member queues in one
// deterministic dispatcher pass. The dispatch clock, queue rings and mirror
// scheduling evolve exactly as under per-IO Submit — each IO's fragments
// still dispatch in ascending first-logical-byte order before the next IO's
// — so completions are byte-identical to the per-IO path.
//
//uflint:hotpath
func (d *CompositeDevice) SubmitBatch(at time.Duration, ios []IO, done []time.Duration) error {
	if err := checkBatch(ios, done); err != nil {
		return err
	}
	prev := at
	for i := range ios {
		end, err := d.service(resolveSubmit(done[i], prev), ios[i])
		if err != nil {
			return &BatchError{Index: i, IO: ios[i], Err: err}
		}
		done[i] = end
		prev = end
	}
	return nil
}

// service is the shared body of Submit and SubmitBatch: one IO through the
// fragment dispatcher. Mirrors degrade gracefully when a member fails with
// ErrDeviceGone: the member is marked dead, reads re-pick among the live
// members, and writes complete as long as one replica took the data.
func (d *CompositeDevice) service(at time.Duration, io IO) (time.Duration, error) {
	if err := checkIO(io, d.capacity); err != nil {
		return 0, err
	}
	d.ios++
	if d.dispatchFree < at {
		d.dispatchFree = at
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
		if mirror && io.Mode == Write && d.dead[f.member] {
			continue
		}
	submit:
		q := &d.queues[f.member]
		admit := d.dispatchFree
		// A full queue blocks the dispatcher until the oldest outstanding
		// IO on this member completes.
		if q.full(admit) {
			admit = q.ring[q.idx]
		}
		end, err := d.members[f.member].Submit(admit, IO{Mode: io.Mode, Off: f.off, Size: f.size})
		if err != nil {
			if mirror && errors.Is(err, ErrDeviceGone) {
				d.dead[f.member] = true
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
		d.dispatchFree = admit
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
			d.degraded++
		}
	}
	return done, nil
}
