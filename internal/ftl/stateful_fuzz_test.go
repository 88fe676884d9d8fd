package ftl_test

import (
	"bytes"
	"testing"
	"time"

	"uflip/internal/ftl"
)

// The stateful fuzz targets drive one translation stack on data-storing chips
// through a random sequence of writes, reads, idle periods, resets from a
// master taken earlier and snapshot-restores into a freshly built stack,
// against the simplest reference model there is: the version of the last
// write to each flash page. Every layer's invariant is audited after every
// step, and every read — and a sweep of the whole device at the end — must
// return, through the data plane, the bytes of exactly that version.

const statefulPages = integrityLogical / statefulPageBytes

const statefulPageBytes = 2048

// pageImage fills buf with the content of page at version (zeros before the
// first write).
func pageImage(buf []byte, page int64, version uint32) {
	clear(buf)
	if version == 0 {
		return
	}
	for j := range buf {
		buf[j] = byte(page*131 + int64(version)*31 + int64(j)*7 + 1)
	}
}

// statefulRun is one stack under test with its reference model, and the master
// a reset returns both to.
type statefulRun struct {
	t     *testing.T
	build func(t *testing.T) ftl.DataPlane
	cur   ftl.Translator
	model map[int64]uint32

	master      ftl.Translator
	masterModel map[int64]uint32
}

func (r *statefulRun) check(step int, what string) {
	r.t.Helper()
	if err := ftl.Audit(r.cur); err != nil {
		r.t.Fatalf("step %d (%s): %v", step, what, err)
	}
}

func (r *statefulRun) write(step int, page, n int64) {
	data := make([]byte, n*statefulPageBytes)
	for p := page; p < page+n; p++ {
		r.model[p]++
		pageImage(data[(p-page)*statefulPageBytes:(p-page+1)*statefulPageBytes], p, r.model[p])
	}
	if _, err := r.cur.(ftl.DataPlane).WriteData(page*statefulPageBytes, data); err != nil {
		r.t.Fatalf("step %d: write of pages [%d,+%d): %v", step, page, n, err)
	}
}

func (r *statefulRun) read(step int, page, n int64) {
	got, want := make([]byte, n*statefulPageBytes), make([]byte, statefulPageBytes)
	if _, err := r.cur.(ftl.DataPlane).ReadData(page*statefulPageBytes, got); err != nil {
		r.t.Fatalf("step %d: read of pages [%d,+%d): %v", step, page, n, err)
	}
	for p := page; p < page+n; p++ {
		pageImage(want, p, r.model[p])
		if !bytes.Equal(got[(p-page)*statefulPageBytes:(p-page+1)*statefulPageBytes], want) {
			r.t.Fatalf("step %d: page %d does not read back as version %d", step, p, r.model[p])
		}
	}
}

func copyModel(m map[int64]uint32) map[int64]uint32 {
	c := make(map[int64]uint32, len(m))
	for k, v := range m {
		c[k] = v
	}
	return c
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
	r := &statefulRun{t: t, model: map[int64]uint32{}}
	for _, st := range integrityStacks() {
		if st.name == name {
			r.build = st.build
		}
	}
	r.cur = r.build(t).(ftl.Translator)
	r.check(-1, "fresh")
	for step := 0; 1+3*step+2 < len(in); step++ {
		c := in[1+3*step : 4+3*step]
		page := (int64(c[0])>>3 | int64(c[1])<<5) % statefulPages
		n := min(int64(c[2])%32+1, statefulPages-page)
		what := "write"
		switch c[0] & 7 {
		case 0, 1, 2:
			r.write(step, page, n)
		case 3, 4:
			what = "read"
			r.read(step, page, n)
		case 5:
			what = "idle"
			r.cur.Idle(time.Duration(c[2]) * time.Millisecond)
		case 6:
			if r.master == nil || c[1]&1 == 0 {
				what = "master taken"
				r.master, r.masterModel = r.cur.Clone(), copyModel(r.model)
				if err := ftl.Audit(r.master); err != nil {
					t.Fatalf("step %d: master: %v", step, err)
				}
			} else {
				what = "reset from master"
				r.cur, r.model = ftl.ResetTranslator(r.cur, r.master), copyModel(r.masterModel)
			}
		case 7:
			what = "snapshot-restore"
			snap, err := ftl.SnapshotTranslator(r.cur)
			if err != nil {
				t.Fatal(err)
			}
			fresh := r.build(t).(ftl.Translator)
			if err := ftl.RestoreTranslator(fresh, snap); err != nil {
				t.Fatalf("step %d: a live stack's snapshot does not restore: %v", step, err)
			}
			r.cur = fresh
		}
		r.check(step, what)
	}
	for page := int64(0); page < statefulPages; page += 32 {
		r.read(len(in), page, 32)
	}
	r.check(len(in), "final sweep")
}

// statefulSeeds are hand-built sequences: fill a stretch and overwrite it until
// garbage collection (merges, destages) runs; take a master mid-way, diverge
// and reset; snapshot-restore between writes; idle so that background
// reclamation and destaging run; read everything back.
func statefulSeeds(f *testing.F) {
	step := func(kind byte, page int, arg byte) []byte {
		return []byte{kind | byte(page&31)<<3, byte(page >> 5), arg}
	}
	for cached := byte(0); cached < 2; cached++ {
		seq := []byte{cached}
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
		seq = []byte{cached}
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
