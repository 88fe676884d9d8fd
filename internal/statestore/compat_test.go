package statestore_test

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"encoding/hex"
	"encoding/json"
	"flag"
	"hash/crc64"
	"os"
	"path/filepath"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/ftl"
	"uflip/internal/paperexp"
	"uflip/internal/profile"
	"uflip/internal/statestore"
	"uflip/internal/trace"
)

// payload is the store's gob payload, so a test can open a state file, edit
// the state inside and seal it again with a correct length and checksum — the
// "damaged before the CRC was taken, or crafted" case no byte flip can produce.
type payload = statestore.Saved

// stateHeader is magic (8) + version (4) + key hash (32) + payload length (8)
// + payload CRC-64/ECMA (8).
const stateHeader = 8 + 4 + 32 + 8 + 8

func openState(t *testing.T, path string) ([]byte, *payload) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	if err := gob.NewDecoder(bytes.NewReader(data[stateHeader:])).Decode(&p); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return data, &p
}

func sealState(t *testing.T, path string, header []byte, p *payload) {
	t.Helper()
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(p); err != nil {
		t.Fatal(err)
	}
	out := append([]byte(nil), header[:stateHeader]...)
	binary.LittleEndian.PutUint64(out[stateHeader-16:], uint64(body.Len()))
	binary.LittleEndian.PutUint64(out[stateHeader-8:], crc64.Checksum(body.Bytes(), crc64.MakeTable(crc64.ECMA)))
	if err := os.WriteFile(path, append(out, body.Bytes()...), 0o644); err != nil {
		t.Fatal(err)
	}
}

// ftlOf digs the FTL's node of the state tree out of a bare or cached stack.
func ftlOf(t *testing.T, p *payload) *ftl.TranslatorState {
	t.Helper()
	top := p.Dev.Top
	if top.Cache != nil {
		top = top.Inner
	}
	return top
}

// The fixtures under testdata/parent were written by the build of the commit
// before the BlockFTL's log table became a slot array and the map book's
// dirty set a bitset (format version 3):
//
//	uflip -device D -capacity 33554432 -micro Granularity -parallel 1 -statedir S -out O
//
// for D = kingston-dti (bare BlockFTL) and transcend-ssd16 (BlockFTL under a
// WriteCache): S/<key hash>.state and O/D.csv. The fixtures under testdata/v5
// were written with the same command by the build of the commit before the
// flash became one chip's state (format version 5), those under testdata/v6 by
// the build of the commit before a cache region's dirty lines became one word
// of the region (format version 6), those under testdata/v7 by the build of
// the commit before the free pools left the state (format version 7). If a profile edit changes the key hash,
// rename each .state file to its new hash: an older build's file is
// quarantined whatever key it was saved under, and the CSV pins what
// re-enforcement then renders.
var parentFixtureCfg = paperexp.Config{Capacity: 32 << 20, Seed: 42, IOCount: 1024}

// TestParentStateFilesStillLoad is the pin on what happens to the state files
// older builds left in a cache directory: this build quarantines the
// version-3, version-5, version-6 and version-7 files alike, enforces the
// state again, saves it in the current format, and a Granularity plan started
// from it renders the parent's summary CSV byte for byte.
func TestParentStateFilesStillLoad(t *testing.T) {
	for _, key := range []string{"kingston-dti", "transcend-ssd16"} {
		t.Run(key, func(t *testing.T) {
			for _, dir := range []string{"parent", "v5", "v6", "v7"} {
				t.Run(dir, func(t *testing.T) { testOlderStateFile(t, key, dir) })
			}
		})
	}
}

func testOlderStateFile(t *testing.T, key, dir string) {
	cfg := parentFixtureCfg
	sk := paperexp.StateKey(key, cfg)
	fixture, err := os.ReadFile(filepath.Join("testdata", dir, sk.Hash()+".state"))
	if err != nil {
		t.Fatalf("no fixture for %s (see the comment on parentFixtureCfg): %v", sk, err)
	}
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.Path(sk), fixture, 0o644); err != nil {
		t.Fatal(err)
	}

	cfg.Store = store
	var hits []bool
	res, err := paperexp.RunBenchmark(context.Background(), key, cfg, paperexp.BenchmarkRequest{
		Micros:  []string{"Granularity"},
		Workers: 1,
		Stages:  paperexp.Stages{StateEnforced: func(_ time.Duration, hit bool) { hits = append(hits, hit) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) == 0 || hits[0] {
		t.Fatalf("state loads hit %v: the plan's first load took the older build's file", hits)
	}
	if moved, err := os.ReadFile(store.Path(sk) + ".corrupt"); err != nil || !bytes.Equal(moved, fixture) {
		t.Fatalf("the older build's file is not preserved as .corrupt (err=%v)", err)
	}
	dev, err := profile.BuildDevice(key, cfg.Capacity)
	if err != nil {
		t.Fatal(err)
	}
	if _, hit, err := store.Load(sk, dev); err != nil || !hit {
		t.Fatalf("re-enforced state: hit=%v err=%v, want a hit", hit, err)
	}
	if _, p := openState(t, store.Path(sk)); len(activeLogs(ftlOf(t, p))) == 0 || ftlOf(t, p).Book.Queued == 0 {
		t.Fatal("fixture pins nothing: no attached log or no dirty map page in the enforced state")
	}
	var csv bytes.Buffer
	if err := trace.WriteSummaryCSV(&csv, paperexp.Records(res.Results)); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "parent", key+".csv"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(csv.Bytes(), want) {
		t.Fatalf("summary CSV from the re-enforced state differs from the parent's own (%d vs %d bytes)", csv.Len(), len(want))
	}
}

// activeLogs returns the indexes of a BlockFTL state's attached log slots.
func activeLogs(s *ftl.TranslatorState) []int {
	var active []int
	for i, l := range s.Block.Logs {
		if l.LBN >= 0 {
			active = append(active, i)
		}
	}
	return active
}

var updateStateBytes = flag.Bool("update", false, "rewrite testdata/state.sha256.json from the current behaviour")

const stateGoldenPath = "testdata/state.sha256.json"

// TestStateBytesGolden is the absolute pin on state bytes: the SHA-256 of the
// state file a bare BlockFTL profile and a WriteCache-over-PageFTL profile
// save at parentFixtureCfg, against digests committed from a known-good tree.
// The round-trip tests compare a save with its own load, so a change that
// moves both passes them. A change of the format, of a state struct or of
// enforcement moves these; regenerate — explained in the PR — with
//
//	go test ./internal/statestore -run TestStateBytesGolden -update
func TestStateBytesGolden(t *testing.T) {
	got := map[string]string{}
	for _, key := range []string{"kingston-dti", "memoright"} {
		cfg := parentFixtureCfg
		store, err := statestore.Open(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		cfg.Store = store
		if _, _, _, err := paperexp.PrepareCached(key, cfg); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(store.Path(paperexp.StateKey(key, cfg)))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		got[key] = hex.EncodeToString(sum[:])
	}
	if *updateStateBytes {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := trace.WriteFileAtomic(stateGoldenPath, append(blob, '\n')); err != nil {
			t.Fatal(err)
		}
		return
	}
	blob, err := os.ReadFile(stateGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]string
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatalf("%s: %v", stateGoldenPath, err)
	}
	for key, sum := range got {
		if want[key] != sum {
			t.Errorf("%s: state file sha256 %s, golden %s", key, sum, want[key])
		}
	}
}

// TestCraftedStatesAreQuarantined: a state file that passes every check of the
// container — magic, version, key, length, checksum, decode — but holds a
// state no device could be in must not load and must not poison the cache:
// Load fails before any of it reaches the device, the file is moved aside, and
// the next run misses and re-enforces.
func testCraftedState(t *testing.T, spec string, corrupt func(t *testing.T, s *ftl.TranslatorState)) {
	store, err := statestore.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	live, at := enforcedDevice(t, spec)
	k := key(spec)
	if err := store.Save(k, live, at); err != nil {
		t.Fatal(err)
	}
	header, p := openState(t, store.Path(k))
	corrupt(t, ftlOf(t, p))
	sealState(t, store.Path(k), header, p)

	fresh := func() device.Device {
		dev, err := profile.BuildDevice(spec, testCapacity)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	target, untouched := fresh(), fresh()
	if _, hit, err := store.Load(k, target); err == nil || hit {
		t.Fatalf("crafted state: hit=%v err=%v, want an error", hit, err)
	}
	driveBoth(t, target, untouched, 19)
	if _, err := os.Stat(store.Path(k) + ".corrupt"); err != nil {
		t.Fatalf("rejected state not quarantined: %v", err)
	}
	if _, hit, err := store.Load(k, fresh()); err != nil || hit {
		t.Fatalf("after quarantine: hit=%v err=%v, want a clean miss", hit, err)
	}
}

// TestCorruptLogTableIsQuarantined: a BlockFTL log table naming one logical
// block twice (two live slots for one block).
func TestCorruptLogTableIsQuarantined(t *testing.T) {
	testCraftedState(t, "kingston-dti", func(t *testing.T, s *ftl.TranslatorState) {
		active := activeLogs(s)
		if len(active) < 2 {
			t.Fatal("enforced state has no two attached logs to make one of")
		}
		s.Block.Logs[active[1]].LBN = s.Block.Logs[active[0]].LBN
	})
}

// TestSwappedMapEntriesAreQuarantined: a PageFTL forward map with two entries
// swapped — every entry in range, every length right, and the maps no longer
// inverse of each other.
func TestSwappedMapEntriesAreQuarantined(t *testing.T) {
	testCraftedState(t, "memoright", func(t *testing.T, s *ftl.TranslatorState) {
		var mapped []int
		for u, slot := range s.Page.FMap {
			if slot >= 0 {
				mapped = append(mapped, u)
			}
		}
		if len(mapped) < 2 {
			t.Fatalf("enforced state maps %d units: nothing to swap", len(mapped))
		}
		a, b := mapped[0], mapped[len(mapped)-1]
		s.Page.FMap[a], s.Page.FMap[b] = s.Page.FMap[b], s.Page.FMap[a]
	})
}
