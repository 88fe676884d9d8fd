package ftl_test

import (
	"bytes"
	"encoding/gob"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"uflip/internal/flash"
	"uflip/internal/ftl"
)

// buildStack assembles a small stack (write cache over a page FTL),
// identically on every call, as the state store does when restoring into a
// freshly built device.
func buildStack(t *testing.T) *ftl.WriteCache {
	t.Helper()
	const logical = 2 << 20
	arr, err := ftl.NewUniformArray(2, flash.SLC, logical+24*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	cost := ftl.DefaultCostModel(flash.SLC)
	page, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes:  logical,
		WritePoints:   2,
		ReserveBlocks: 6,
		GCBatch:       2,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	cache, err := ftl.NewWriteCache(page, ftl.CacheConfig{
		CapacityBytes: 256 * 1024,
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

// TestSnapshotGobRoundTrip drives a stack, snapshots it through a gob round
// trip (exactly what the state store persists), restores into a fresh
// identical stack and checks the restored stack is indistinguishable: the
// same Ops for every later IO, the same idle behaviour and the same state.
func TestSnapshotGobRoundTrip(t *testing.T) {
	live := buildStack(t)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 64; i++ {
		off := rng.Int63n(live.Capacity()-8192) &^ 511
		if _, err := live.Write(off, 4096+rng.Int63n(2)*2048); err != nil {
			t.Fatal(err)
		}
	}
	fresh := buildStack(t)
	if err := ftl.RestoreTranslator(fresh, gobRoundTrip(t, snapshot(t, live))); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 128; i++ {
		off := rng.Int63n(live.Capacity()-8192) &^ 511
		write := rng.Intn(2) == 0
		opsA, errA := do(live, write, off, 4096)
		opsB, errB := do(fresh, write, off, 4096)
		if errA != nil || errB != nil || opsA != opsB {
			t.Fatalf("IO %d (write=%v): ops %+v vs %+v (errs %v, %v)", i, write, opsA, opsB, errA, errB)
		}
	}
	// Idle time must also be spent identically afterwards.
	live.Idle(time.Second)
	fresh.Idle(time.Second)
	if !reflect.DeepEqual(snapshot(t, live), snapshot(t, fresh)) {
		t.Fatal("the restored stack ends in another state than the live one")
	}
	for _, stack := range []ftl.Translator{live, fresh} {
		if err := ftl.Audit(stack); err != nil {
			t.Fatal(err)
		}
	}
}
