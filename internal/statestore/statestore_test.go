package statestore_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/methodology"
	"uflip/internal/profile"
	"uflip/internal/statestore"
)

const testCapacity = 8 << 20

func enforcedDevice(t *testing.T, spec string) (device.Cloneable, time.Duration) {
	t.Helper()
	dev, err := profile.BuildDevice(spec, testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	at, err := methodology.EnforceRandomState(dev, 42)
	if err != nil {
		t.Fatal(err)
	}
	return dev, at
}

func key(spec string) statestore.Key {
	return statestore.Key{Spec: spec, Capacity: testCapacity, Seed: 42, Enforce: "random"}
}

// driveBoth submits an identical deterministic IO mix to both devices and
// fails on the first diverging completion time — the strictest equivalence
// the device interface can express.
func driveBoth(t *testing.T, a, b device.Device, seed int64) {
	t.Helper()
	if a.Capacity() != b.Capacity() {
		t.Fatalf("capacities differ: %d vs %d", a.Capacity(), b.Capacity())
	}
	rng := rand.New(rand.NewSource(seed))
	var at time.Duration
	for i := 0; i < 400; i++ {
		size := (rng.Int63n(64) + 1) * 512
		off := rng.Int63n((a.Capacity()-size)/512) * 512
		mode := device.Read
		if rng.Intn(2) == 0 {
			mode = device.Write
		}
		io := device.IO{Mode: mode, Off: off, Size: size}
		da, ea := a.Submit(at, io)
		db, eb := b.Submit(at, io)
		if (ea == nil) != (eb == nil) {
			t.Fatalf("io %d: error mismatch: %v vs %v", i, ea, eb)
		}
		if da != db {
			t.Fatalf("io %d (%s off=%d size=%d): completion %v vs %v", i, mode, off, size, da, db)
		}
		at = da + time.Duration(rng.Intn(5))*time.Millisecond
	}
	for _, d := range []device.Device{a, b} {
		if err := device.Audit(d); err != nil {
			t.Fatal(err)
		}
	}
}

// TestSaveLoadRoundTrip covers every translation design in the profile set
// plus a composite array: a loaded state must be indistinguishable from the
// live enforced device under any subsequent IO sequence.
func TestSaveLoadRoundTrip(t *testing.T) {
	specs := []string{
		"memoright",       // page FTL + RAM write cache, write-back
		"samsung",         // page FTL + flash-backed log zone
		"kingston-dti",    // block FTL, no cache
		"transcend-mlc32", // block FTL + flash-backed cache
		"stripe(2,mtron,mtron)",
		"mirror(2,kingston-dti,kingston-dti)",
	}
	for _, spec := range specs {
		t.Run(spec, func(t *testing.T) {
			store, err := statestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			live, at := enforcedDevice(t, spec)
			if err := store.Save(key(spec), live, at); err != nil {
				t.Fatal(err)
			}
			fresh, err := profile.BuildDevice(spec, testCapacity)
			if err != nil {
				t.Fatal(err)
			}
			gotAt, hit, err := store.Load(key(spec), fresh)
			if err != nil {
				t.Fatal(err)
			}
			if !hit {
				t.Fatal("saved state not found")
			}
			if gotAt != at {
				t.Fatalf("loaded at=%v, want %v", gotAt, at)
			}
			driveBoth(t, live, fresh, 7)
		})
	}
}

func TestLoadMissIsNotAnError(t *testing.T) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dev, err := profile.BuildDevice("mtron", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	at, hit, err := store.Load(key("mtron"), dev)
	if err != nil || hit || at != 0 {
		t.Fatalf("miss: got at=%v hit=%v err=%v, want 0/false/nil", at, hit, err)
	}
	if _, err := os.Stat(store.Path(key("mtron"))); err == nil {
		t.Fatal("a miss left a state file behind")
	}
}

func TestKeyHashSeparatesConfigurations(t *testing.T) {
	base := key("mtron")
	variants := []statestore.Key{
		{Spec: "samsung", Capacity: base.Capacity, Seed: base.Seed, Enforce: base.Enforce},
		{Spec: base.Spec, Capacity: base.Capacity * 2, Seed: base.Seed, Enforce: base.Enforce},
		{Spec: base.Spec, Capacity: base.Capacity, Seed: base.Seed + 1, Enforce: base.Enforce},
		{Spec: base.Spec, Capacity: base.Capacity, Seed: base.Seed, Enforce: "sequential"},
	}
	for _, v := range variants {
		if v.Hash() == base.Hash() {
			t.Fatalf("key %v collides with %v", v, base)
		}
	}
}

// TestCorruptedFilesAreQuarantined pins the store's central safety property:
// a damaged state file is never silently mis-loaded. Load moves it aside to
// <file>.corrupt — preserving the bytes for inspection — and reports a miss,
// so the caller re-enforces live and Save replaces the state.
func TestCorruptedFilesAreQuarantined(t *testing.T) {
	dir := t.TempDir()
	store, err := statestore.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	live, at := enforcedDevice(t, "kingston-dti")
	k := key("kingston-dti")
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	path := store.Path(k)
	pristine, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	freshLoad := func(t *testing.T) (bool, error) {
		t.Helper()
		dev, err := profile.BuildDevice("kingston-dti", testCapacity)
		if err != nil {
			t.Fatal(err)
		}
		_, hit, err := store.Load(k, dev)
		return hit, err
	}
	if hit, err := freshLoad(t); err != nil || !hit {
		t.Fatalf("pristine file failed to load: hit=%v err=%v", hit, err)
	}

	corrupt := func(name string, mutate func([]byte) []byte) {
		t.Run(name, func(t *testing.T) {
			damaged := mutate(append([]byte(nil), pristine...))
			if err := os.WriteFile(path, damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				os.Remove(path + ".corrupt")
				os.WriteFile(path, pristine, 0o644)
			}()
			hit, err := freshLoad(t)
			if err != nil {
				t.Fatalf("corrupted state file errored instead of quarantining: %v", err)
			}
			if hit {
				t.Fatal("corrupted state file loaded as a hit")
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupted file still in place (stat err=%v); it must move to .corrupt", err)
			}
			moved, err := os.ReadFile(path + ".corrupt")
			if err != nil {
				t.Fatalf("quarantined file missing: %v", err)
			}
			if !bytes.Equal(moved, damaged) {
				t.Fatal("quarantined bytes differ from the damaged file")
			}
		})
	}
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("truncated payload", func(b []byte) []byte { return b[:len(b)/2] })
	corrupt("empty file", func(b []byte) []byte { return nil })
	corrupt("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	corrupt("bad version", func(b []byte) []byte { b[8] ^= 0xFF; return b })
	corrupt("flipped payload byte", func(b []byte) []byte { b[len(b)-7] ^= 0x10; return b })
	corrupt("trailing garbage", func(b []byte) []byte { return append(b, 0xAB) })

	t.Run("foreign key file", func(t *testing.T) {
		other := key("mtron")
		if err := os.WriteFile(store.Path(other), pristine, 0o644); err != nil {
			t.Fatal(err)
		}
		defer os.Remove(store.Path(other) + ".corrupt")
		dev, err := profile.BuildDevice("mtron", testCapacity)
		if err != nil {
			t.Fatal(err)
		}
		if _, hit, err := store.Load(other, dev); err != nil || hit {
			t.Fatalf("foreign key file: hit=%v err=%v, want quarantined miss", hit, err)
		}
		if _, err := os.Stat(store.Path(other) + ".corrupt"); err != nil {
			t.Fatalf("foreign key file not quarantined: %v", err)
		}
	})

	t.Run("no temp files left behind", func(t *testing.T) {
		matches, err := filepath.Glob(filepath.Join(dir, ".tmp-*"))
		if err != nil {
			t.Fatal(err)
		}
		if len(matches) != 0 {
			t.Fatalf("temp files left behind: %v", matches)
		}
	})
}

// TestQuarantineRecoversByteIdentical is the corruption regression test: flip
// one payload byte in a saved state, then run the load-or-enforce sequence
// every caller uses. The corrupt file must quarantine as a miss, the live
// re-enforcement must reproduce the state byte-identically to a cold run with
// no store at all, and the re-saved file must serve later loads again.
func TestQuarantineRecoversByteIdentical(t *testing.T) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := key("memoright")
	live, at := enforcedDevice(t, "memoright")
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	path := store.Path(k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-9] ^= 0x40
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	// The caller-side sequence: load (must quarantine to a miss), enforce
	// live, save.
	recovered, err := profile.BuildDevice("memoright", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(k, recovered); err != nil || hit {
		t.Fatalf("corrupt load: hit=%v err=%v, want quarantined miss", hit, err)
	}
	recAt, err := methodology.EnforceRandomState(recovered, 42)
	if err != nil {
		t.Fatal(err)
	}
	if recAt != at {
		t.Fatalf("re-enforcement finished at %v, cold run at %v", recAt, at)
	}
	if err := store.Save(k, recovered, recAt); err != nil {
		t.Fatal(err)
	}

	// Byte-identical to a cold run: same completions under an adversarial IO
	// mix, and the re-saved file loads as a hit that behaves the same.
	cold, coldAt := enforcedDevice(t, "memoright")
	if coldAt != at {
		t.Fatalf("cold enforcement at %v, want %v", coldAt, at)
	}
	driveBoth(t, cold, recovered, 11)
	reloaded, err := profile.BuildDevice("memoright", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(k, reloaded); err != nil || !hit {
		t.Fatalf("re-saved state: hit=%v err=%v, want clean hit", hit, err)
	}
	cold2, _ := enforcedDevice(t, "memoright")
	driveBoth(t, cold2, reloaded, 13)
}

// TestRestoreIntoWrongDeviceFails: a valid file must refuse to restore into
// a structurally different device.
func TestRestoreIntoWrongDeviceFails(t *testing.T) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live, at := enforcedDevice(t, "memoright")
	k := key("memoright")
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	// Same key, but the caller hands a device built from another profile:
	// the snapshot shape (page FTL + cache over a different array) must not
	// silently restore.
	wrong, err := profile.BuildDevice("kingston-dti", testCapacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := store.Load(k, wrong); err == nil {
		t.Fatal("page-FTL state restored into a block-FTL device")
	}
}

// TestVersion1FileIsQuarantinedAndReenforced: a state file of an older
// format version — 1 (chip snapshots with a per-page state array), 2 (a
// PageFTL snapshot carrying its lazy victim heap and block generations), 3
// (snapshot structs mirroring the layers instead of the state they run on),
// 4 (a PageFTL mapping sub-block units, a write cache banking idle credit),
// 5 (the flash as a list of chips, each with a page register), 6 (a write
// cache keeping its regions' dirty lines in a bitset slab beside them) or 7
// (the FTLs' free pools stored as heap arrays) —
// left in a cache directory by an older build must not be decoded by this
// one. It takes the corrupt-cache path — quarantined as a miss — and the
// caller's live re-enforcement then saves a current-version file that loads
// as a hit.
func TestVersion1FileIsQuarantinedAndReenforced(t *testing.T) {
	for old, profileKey := range map[uint32]string{1: "kingston-dti", 2: "memoright", 3: "transcend-mlc32", 4: "mtron", 5: "samsung", 6: "gskill", 7: "kingston-sd"} {
		t.Run(fmt.Sprintf("v%d", old), func(t *testing.T) {
			store, err := statestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			k := key(profileKey)
			live, at := enforcedDevice(t, profileKey)
			if err := store.Save(k, live, at); err != nil {
				t.Fatal(err)
			}
			path := store.Path(k)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			const versionAt = 8 // the version field follows the 8-byte magic
			if got := binary.LittleEndian.Uint32(data[versionAt:]); got != 8 {
				t.Fatalf("saved file has format version %d, want 8", got)
			}
			binary.LittleEndian.PutUint32(data[versionAt:], old)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}

			dev, err := profile.BuildDevice(profileKey, testCapacity)
			if err != nil {
				t.Fatal(err)
			}
			if _, hit, err := store.Load(k, dev); err != nil || hit {
				t.Fatalf("version-%d load: hit=%v err=%v, want quarantined miss", old, hit, err)
			}
			if moved, err := os.ReadFile(path + ".corrupt"); err != nil || !bytes.Equal(moved, data) {
				t.Fatalf("version-%d file not preserved as .corrupt (err=%v)", old, err)
			}
			devAt, err := methodology.EnforceRandomState(dev, 42)
			if err != nil {
				t.Fatal(err)
			}
			if err := store.Save(k, dev, devAt); err != nil {
				t.Fatal(err)
			}
			reloaded, err := profile.BuildDevice(profileKey, testCapacity)
			if err != nil {
				t.Fatal(err)
			}
			if _, hit, err := store.Load(k, reloaded); err != nil || !hit {
				t.Fatalf("re-saved state: hit=%v err=%v, want clean hit", hit, err)
			}
			// The restored PageFTL's candidate queue is rebuilt, not loaded:
			// it must pick the same victims as the live device's.
			driveBoth(t, live, reloaded, 17)
		})
	}
}
