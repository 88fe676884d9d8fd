package profile

// This file is the absolute pin on the simulated stack itself, below every
// renderer: for each of the eleven profiles, a digest of what a seeded mixed
// stream leaves behind — every completion time, the FTL's and the cache's
// counters, the free pool's size and every block's erase count. A refactor of
// a layer that moves none of those passes it unmodified. Regenerate
// testdata/stack.sha256.json — only for an intended change of model,
// explained in the PR — with
//
//	go test ./internal/profile -run TestStackBytesGolden -update

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash"
	"math/rand"
	"os"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/ftl"
	"uflip/internal/methodology"
)

var updateStack = flag.Bool("update", false, "rewrite testdata/stack.sha256.json from the current behaviour")

const (
	stackGoldenPath = "testdata/stack.sha256.json"
	stackCapacity   = 64 << 20
	stackBatches    = 48
	stackBatchIOs   = 64
)

// stackStream fills ios and done with one batch of the pinned stream: reads
// and writes of 512 B to 256 KiB, random or continuing the previous IO, each
// submitted back to back, after a short gap or after up to 2 s of idleness —
// enough to fire inline and asynchronous reclamation, read steal and the
// write-back lag throttle.
func stackStream(rng *rand.Rand, next *int64, ios []device.IO, done []time.Duration) {
	const sector = 512
	for i := range ios {
		size := (rng.Int63n(512) + 1) * sector
		off := *next
		if rng.Intn(2) == 0 || off+size > stackCapacity {
			off = rng.Int63n((stackCapacity-size)/sector+1) * sector
		}
		mode := device.Write
		if rng.Intn(5) < 2 {
			mode = device.Read
		}
		ios[i] = device.IO{Mode: mode, Off: off, Size: size}
		*next = off + size
		switch r := rng.Intn(100); {
		case r < 85:
			done[i] = device.ChainNext
		case r < 95:
			done[i] = device.ChainAfter(time.Duration(rng.Int63n(int64(10 * time.Millisecond))))
		default:
			done[i] = device.ChainAfter(time.Duration(rng.Int63n(int64(2 * time.Second))))
		}
	}
}

// stackDigest drives the pinned stream on profile p and digests the outcome.
func stackDigest(t *testing.T, p Profile) string {
	t.Helper()
	dev, err := p.BuildWithCapacity(stackCapacity)
	if err != nil {
		t.Fatal(err)
	}
	at, err := methodology.EnforceRandomState(dev, 42)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	put := func(vs ...int64) {
		for _, v := range vs {
			binary.Write(h, binary.LittleEndian, v)
		}
	}
	rng := rand.New(rand.NewSource(42))
	var next int64
	ios := make([]device.IO, stackBatchIOs)
	done := make([]time.Duration, stackBatchIOs)
	for b := 0; b < stackBatches; b++ {
		stackStream(rng, &next, ios, done)
		if err := dev.SubmitBatch(at, ios, done); err != nil {
			t.Fatalf("%s: batch %d: %v", p.Key, b, err)
		}
		for _, d := range done {
			put(int64(d))
		}
		at = done[len(done)-1]
	}
	top := dev.Top()
	if c, ok := top.(*ftl.WriteCache); ok {
		s := c.Stats()
		put(s.Hits, s.Misses, s.CompleteFlush, s.StreamFlushes, s.CapFlushes, s.Promotions)
		top = c.Inner()
	}
	f := top.(interface {
		Stats() ftl.Stats
		FreeBlocks() int
	})
	st := f.Stats()
	put(st.HostReads, st.HostWrites, st.HostPagesWritten, st.PagesRead, st.PagesProgrammed,
		st.BlocksErased, st.Merges, st.SwitchMerges, st.AsyncReclaims, st.MapFlushes)
	put(int64(f.FreeBlocks()))
	if p.Kind == PageMapped && st.Merges != st.SwitchMerges {
		// A mapping unit is a flash block, so a reclaimed block holds no
		// live unit to copy.
		t.Errorf("%s: %d collections, only %d of fully obsolete blocks", p.Key, st.Merges, st.SwitchMerges)
	}
	eraseCounts(t, top, h)
	return hex.EncodeToString(h.Sum(nil))
}

// eraseCounts writes every block's erase count, in block order, into h.
func eraseCounts(t *testing.T, top ftl.Translator, h hash.Hash) {
	t.Helper()
	s, err := ftl.SnapshotTranslator(top)
	if err != nil {
		t.Fatal(err)
	}
	for _, chip := range s.Arr.Chips {
		for _, b := range chip.Blocks {
			binary.Write(h, binary.LittleEndian, int64(b.EraseCount))
		}
	}
}

// TestStackBytesGolden pins, per profile, the stack's response to the seeded
// stream after random-state enforcement at 64 MiB, against digests committed
// from a known-good tree.
func TestStackBytesGolden(t *testing.T) {
	got := map[string]string{}
	for _, p := range All() {
		got[p.Key] = stackDigest(t, p)
	}
	if *updateStack {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stackGoldenPath, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(stackGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", stackGoldenPath, err)
	}
	if len(want) != len(got) {
		t.Errorf("%s holds %d profiles, the tree has %d", stackGoldenPath, len(want), len(got))
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: stack digest %s, golden %s", key, sum, want[key])
		}
	}
}
