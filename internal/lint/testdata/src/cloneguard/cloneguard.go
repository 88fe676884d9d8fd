// Package cloneguard is the golden fixture of the cloneguard analyzer:
// the added-but-not-cloned field class it exists to catch, the two
// annotation escape hatches, and the whole-struct-copy exemption.
package cloneguard

import "errors"

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

// tankState is state as data: the struct a layer runs on. Its copy routine
// and its validator must each cover every field; copyFrom forgets the drip
// count and audit the marks.
type tankState struct {
	Level int
	Marks []int // want `field Marks is not referenced in \(\*tankState\)\.audit`
	Drips int   // want `field Drips is not referenced in \(\*tankState\)\.copyFrom`
}

func (s *tankState) copyFrom(src *tankState) {
	s.Level = src.Level
	s.Marks = append(s.Marks[:0], src.Marks...)
}

func (s *tankState) audit(cfg *tankConfig) error {
	if s.Level < 0 || s.Level > cfg.depth || s.Drips < 0 {
		return errors.New("no tank of this depth holds that")
	}
	return nil
}

type tankConfig struct{ depth int }

// tank is the layer around it: configuration, state, and a derived group.
// resetFrom covers all three (the derived group through rederive); Snapshot
// reads only the state, so each other group takes one annotation.
type tank struct {
	cfg tankConfig //uflint:shared — immutable build
	st  tankState
	der struct { //uflint:scratch — rebuilt by rederive
		full bool
	}
}

func (t *tank) resetFrom(src *tank) {
	t.cfg = src.cfg
	t.st.copyFrom(&src.st)
	t.rederive()
}

func (t *tank) rederive() { t.der.full = t.st.Level == t.cfg.depth }

// Snapshot is copyFrom into a fresh struct.
func (t *tank) Snapshot() *tankState {
	s := &tankState{}
	s.copyFrom(&t.st)
	return s
}
