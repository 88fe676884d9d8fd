package ftl_test

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"uflip/internal/ftl"
)

// The stateful fuzz targets drive one translation stack through a random
// sequence of writes, reads, idle periods, resets from a master taken earlier
// and snapshot-restores into a freshly built stack, beside a twin that takes
// none of those shortcuts: where the stack is reset in place from the master,
// the twin becomes a fresh Clone of it, and the twin is never
// snapshot-restored. Every step must perform the same Ops and fail with the
// same error on both, every layer's invariant — derived structures included —
// is audited on both after every step, and a sweep of the whole device at the
// end must leave both in the same state. One check needs no twin: a read
// touching only logical blocks (the flash-block-sized mapping units of both
// FTLs) that were never written performs no flash read.

const statefulPages = integrityLogical / statefulPageBytes

const (
	statefulPageBytes = 2048
	statefulUnitPages = 64 // pages of a logical block: 128 KiB
)

// statefulRun is one stack under test with its twin and the logical blocks
// written so far, and the master a reset returns the stack to.
type statefulRun struct {
	t         *testing.T
	build     func(t *testing.T) ftl.Translator
	cur, twin ftl.Translator
	written   []bool

	master        ftl.Translator
	masterWritten []bool
}

func (r *statefulRun) check(step int, what string) {
	r.t.Helper()
	for _, tr := range []ftl.Translator{r.cur, r.twin} {
		if err := ftl.Audit(tr); err != nil {
			r.t.Fatalf("step %d (%s): %v", step, what, err)
		}
	}
}

// io performs a write, or a read, of pages [page, page+n) on the stack and
// its twin.
func (r *statefulRun) io(step int, write bool, page, n int64) {
	r.t.Helper()
	off, length := page*statefulPageBytes, n*statefulPageBytes
	got, err := do(r.cur, write, off, length)
	want, twinErr := do(r.twin, write, off, length)
	if got != want || fmt.Sprint(err) != fmt.Sprint(twinErr) {
		r.t.Fatalf("step %d (write=%v of pages [%d,+%d)): the stack performed %+v (%v), its twin %+v (%v)", step, write, page, n, got, err, want, twinErr)
	}
	if err != nil {
		r.t.Fatalf("step %d (write=%v of pages [%d,+%d)): %v", step, write, page, n, err)
	}
	units := r.written[page/statefulUnitPages : (page+n-1)/statefulUnitPages+1]
	switch {
	case write:
		for i := range units {
			units[i] = true
		}
	case !slices.Contains(units, true) && got.PageReads+got.MergeReads != 0:
		r.t.Fatalf("step %d: a read of never-written pages [%d,+%d) performed %+v", step, page, n, got)
	}
}

// fuzzStateful interprets in: the first byte picks the bare FTL or the FTL
// under a WriteCache, then every three bytes are a step — kind and page in
// the first two, length (or idle time) in the third.
func fuzzStateful(t *testing.T, bare, cached string, in []byte) {
	if len(in) == 0 {
		return
	}
	name := bare
	if in[0]&1 != 0 {
		name = cached
	}
	r := &statefulRun{t: t, written: make([]bool, statefulPages/statefulUnitPages)}
	for _, st := range integrityStacks() {
		if st.name == name {
			r.build = st.build
		}
	}
	r.cur = r.build(t)
	r.twin = r.cur.Clone()
	r.check(-1, "fresh")
	for step := 0; 1+3*step+2 < len(in); step++ {
		c := in[1+3*step : 4+3*step]
		page := (int64(c[0])>>3 | int64(c[1])<<5) % statefulPages
		n := min(int64(c[2])%32+1, statefulPages-page)
		what := "write"
		switch c[0] & 7 {
		case 0, 1, 2:
			r.io(step, true, page, n)
		case 3, 4:
			what = "read"
			r.io(step, false, page, n)
		case 5:
			what = "idle"
			r.cur.Idle(time.Duration(c[2]) * time.Millisecond)
			r.twin.Idle(time.Duration(c[2]) * time.Millisecond)
		case 6:
			if r.master == nil || c[1]&1 == 0 {
				what = "master taken"
				r.master, r.masterWritten = r.cur.Clone(), slices.Clone(r.written)
				if err := ftl.Audit(r.master); err != nil {
					t.Fatalf("step %d: master: %v", step, err)
				}
			} else {
				what = "reset from master"
				r.cur, r.twin = ftl.ResetTranslator(r.cur, r.master), r.master.Clone()
				r.written = slices.Clone(r.masterWritten)
			}
		case 7:
			what = "snapshot-restore"
			snap, err := ftl.SnapshotTranslator(r.cur)
			if err != nil {
				t.Fatal(err)
			}
			fresh := r.build(t)
			if err := ftl.RestoreTranslator(fresh, snap); err != nil {
				t.Fatalf("step %d: a live stack's snapshot does not restore: %v", step, err)
			}
			r.cur = fresh
		}
		r.check(step, what)
	}
	for page := int64(0); page < statefulPages; page += 32 {
		r.io(len(in), false, page, 32)
	}
	r.check(len(in), "final sweep")
	if !reflect.DeepEqual(snapshot(t, r.cur), snapshot(t, r.twin)) {
		t.Fatal("the stack and its twin end in different states")
	}
}

// statefulSeeds are hand-built sequences: read the never-written last logical
// block; fill a stretch and overwrite it until garbage collection (merges,
// destages) runs; take a master mid-way, diverge and reset; snapshot-restore
// between writes; idle so that background reclamation and destaging run; read
// everything back.
func statefulSeeds(f *testing.F) {
	step := func(kind byte, page int, arg byte) []byte {
		return []byte{kind | byte(page&31)<<3, byte(page >> 5), arg}
	}
	for cached := byte(0); cached < 2; cached++ {
		start := append([]byte{cached}, step(3, statefulPages-statefulUnitPages, 31)...)
		seq := slices.Clone(start)
		for round := 0; round < 6; round++ {
			for page := 0; page < 512; page += 32 {
				seq = append(seq, step(0, (page*7+round*96)%statefulPages, 31)...)
			}
			seq = append(seq, step(3, round*100, 31)...)
			switch round {
			case 1:
				seq = append(seq, step(6, 0, 0)...) // master
			case 2:
				seq = append(seq, step(7, 0, 0)...) // snapshot-restore
			case 3:
				seq = append(seq, step(5, 0, 200)...) // idle
			case 4:
				seq = append(seq, step(6, 32, 0)...) // reset (second byte odd)
			}
		}
		f.Add(seq)
		// Small scattered writes, a page or two each, with resets in between.
		seq = slices.Clone(start)
		for i := 0; i < 300; i++ {
			seq = append(seq, step(byte(i%3), (i*389)%statefulPages, byte(i%2))...)
			if i%50 == 49 {
				seq = append(seq, step(6, 32*(i/50%2), 0)...)
				seq = append(seq, step(7, 0, 0)...)
			}
		}
		f.Add(seq)
	}
}

func FuzzPageFTLStateful(f *testing.F) {
	statefulSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) { fuzzStateful(t, "page", "cache+page", in) })
}

func FuzzBlockFTLStateful(f *testing.F) {
	statefulSeeds(f)
	f.Fuzz(func(t *testing.T, in []byte) { fuzzStateful(t, "block", "cache+block", in) })
}
