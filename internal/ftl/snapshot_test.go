package ftl_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"testing"
	"time"

	"uflip/internal/flash"
	"uflip/internal/ftl"
)

// buildDataStack assembles a small data-plane stack (write cache over a page
// FTL over data-storing chips), identically on every call, as the state
// store does when restoring into a freshly built device.
func buildDataStack(t *testing.T) *ftl.WriteCache {
	t.Helper()
	const logical = 2 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+24*128*1024, flash.WithDataStorage())
	if err != nil {
		t.Fatal(err)
	}
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	page, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes:    logical,
		UnitBytes:       32 * 1024,
		WritePoints:     2,
		ReserveBlocks:   6,
		GCBatch:         2,
		MapDirtyLimit:   4,
		MapUnitsPerPage: 16,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := ftl.NewWriteCache(page, ftl.CacheConfig{
		CapacityBytes: 256 * 1024,
		LineBytes:     4096,
		RegionBytes:   128 * 1024,
		Streams:       2,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	return cache
}

func gobRoundTrip(t *testing.T, snap *ftl.TranslatorState) *ftl.TranslatorState {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(snap); err != nil {
		t.Fatal(err)
	}
	var out ftl.TranslatorState
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return &out
}

// TestSnapshotGobRoundTripDataMode drives a data-mode stack, snapshots it
// through a gob round trip (exactly what the state store persists), restores
// into a fresh identical stack and checks the restored stack is
// indistinguishable — same Ops and same payload bytes for every later IO.
func TestSnapshotGobRoundTripDataMode(t *testing.T) {
	live := buildDataStack(t)
	rng := rand.New(rand.NewSource(3))
	payload := func(n int64) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for i := 0; i < 64; i++ {
		off := rng.Int63n(live.Capacity()-8192) &^ 511
		if _, err := live.WriteData(off, payload(4096+rng.Int63n(2)*2048)); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := ftl.SnapshotTranslator(live)
	if err != nil {
		t.Fatal(err)
	}
	fresh := buildDataStack(t)
	if err := ftl.RestoreTranslator(fresh, gobRoundTrip(t, snap)); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		off := rng.Int63n(live.Capacity()-8192) &^ 511
		if rng.Intn(2) == 0 {
			data := payload(4096)
			opsA, errA := live.WriteData(off, data)
			opsB, errB := fresh.WriteData(off, data)
			if errA != nil || errB != nil || opsA != opsB {
				t.Fatalf("write %d: ops %+v vs %+v (errs %v, %v)", i, opsA, opsB, errA, errB)
			}
			continue
		}
		bufA := make([]byte, 4096)
		bufB := make([]byte, 4096)
		opsA, errA := live.ReadData(off, bufA)
		opsB, errB := fresh.ReadData(off, bufB)
		if errA != nil || errB != nil || opsA != opsB {
			t.Fatalf("read %d: ops %+v vs %+v (errs %v, %v)", i, opsA, opsB, errA, errB)
		}
		if !bytes.Equal(bufA, bufB) {
			t.Fatalf("read %d at %d: restored stack returned different bytes", i, off)
		}
	}
	// Idle destaging must also behave identically afterwards.
	live.Idle(time.Second)
	fresh.Idle(time.Second)
	if live.DirtyLines() != fresh.DirtyLines() {
		t.Fatalf("dirty lines diverge after idle: %d vs %d", live.DirtyLines(), fresh.DirtyLines())
	}
	for _, stack := range []ftl.Translator{live, fresh} {
		if err := ftl.Audit(stack); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSnapshotNilDataMapsRestore: a snapshot whose payload maps are nil
// (a data-mode stack with nothing buffered, serialized by an encoder that
// collapses empty maps to nil) must restore cleanly into a data-mode stack,
// not be rejected as a data-mode mismatch. Payloads on a non-data stack
// remain an error.
func TestSnapshotNilDataMapsRestore(t *testing.T) {
	live := buildDataStack(t)
	snap, err := ftl.SnapshotTranslator(live)
	if err != nil {
		t.Fatal(err)
	}
	decoded := gobRoundTrip(t, snap)
	if decoded.Cache == nil {
		t.Fatal("snapshot lost its cache layer")
	}
	// Simulate the nil-collapsing encoder.
	decoded.Cache.LineData = nil
	for _, cs := range decoded.Inner.Arr.Chips {
		if len(cs.Data) != 0 {
			t.Fatal("test premise broken: untouched stack has stored payloads")
		}
		cs.Data = nil
	}
	fresh := buildDataStack(t)
	if err := ftl.RestoreTranslator(fresh, decoded); err != nil {
		t.Fatalf("restoring a nil-map data-mode snapshot failed: %v", err)
	}
	if !fresh.StoresData() {
		t.Fatal("restored stack lost data mode")
	}
	if _, err := fresh.WriteData(0, make([]byte, 4096)); err != nil {
		t.Fatalf("restored stack cannot write data: %v", err)
	}
	if err := ftl.Audit(fresh); err != nil {
		t.Fatal(err)
	}
}
