// Package cloneguard is the golden fixture of the cloneguard analyzer:
// the added-but-not-cloned field class it exists to catch, the two
// annotation escape hatches, and the whole-struct-copy exemption.
package cloneguard

// tracker has a Clone that forgets a field: the exact bug class the
// analyzer pins at declaration time.
type tracker struct {
	ops    int64
	missed []int // want `field missed is not referenced in \(\*tracker\)\.Clone`
	seed   int64 //uflint:shared — immutable config, deliberately aliased
	buf    []int //uflint:scratch — dead between calls
}

// Clone copies ops but forgets missed.
func (t *tracker) Clone() *tracker {
	return &tracker{ops: t.ops}
}

// book snapshots with a whole-struct copy, which references every field
// at once; only the map needs (and gets) a deep fix-up.
type book struct {
	pages map[int]string
	dirty bool
}

// Snapshot deep-copies via *b.
func (b *book) Snapshot() *book {
	g := *b
	pages := make(map[int]string, len(g.pages))
	for k, v := range g.pages {
		pages[k] = v
	}
	g.pages = pages
	return &g
}

// gauge has a Restore that forgets the high-water mark.
type gauge struct {
	level int
	high  int // want `field high is not referenced in \(\*gauge\)\.Restore`
}

// Restore rewinds level but not high.
func (g *gauge) Restore(level int) {
	g.level = level
}

// ring expresses Clone through ResetFrom, the one traversal of its state:
// fields referenced in a method of the same type that Clone calls count as
// referenced by Clone — and ResetFrom forgets the cursor, which is therefore
// reported against both.
type ring struct {
	slots []int
	head  int   // want `field head is not referenced in \(\*ring\)\.ResetFrom` // want `field head is not referenced in \(\*ring\)\.Clone`
	spare []int //uflint:scratch — reuse buffer
}

// Clone is ResetFrom into a zero value.
func (r *ring) Clone() *ring {
	g := &ring{}
	g.ResetFrom(r)
	return g
}

// ResetFrom copies slots, reusing the receiver's buffer, but not head.
func (r *ring) ResetFrom(src *ring) {
	r.slots = append(r.slots[:0], src.slots...)
}

// meter calls another type's ResetFrom, which covers none of its own
// fields.
type meter struct {
	r     ring
	total int // want `field total is not referenced in \(\*meter\)\.Clone`
}

// Clone resets the embedded ring only.
func (m *meter) Clone() *meter {
	g := &meter{}
	g.r.ResetFrom(&m.r)
	return g
}

// window is the clean shape: Clone is ResetFrom into a zero value and
// ResetFrom, with a helper of the same type, covers every field.
type window struct {
	lo, hi int
	marks  []bool
}

// Clone is ResetFrom into a zero value.
func (w *window) Clone() *window {
	g := &window{}
	g.ResetFrom(w)
	return g
}

// ResetFrom copies the bounds itself and the marks through a helper.
func (w *window) ResetFrom(src *window) {
	w.lo, w.hi = src.lo, src.hi
	w.copyMarks(src)
}

func (w *window) copyMarks(src *window) {
	w.marks = append(w.marks[:0], src.marks...)
}
