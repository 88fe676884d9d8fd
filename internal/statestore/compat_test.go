package statestore_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/gob"
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

// payload mirrors the store's gob payload (gob matches structs by field
// name), so a test can open a state file, edit the snapshot inside and seal
// it again with a correct length and checksum — the "damaged before the CRC
// was taken, or crafted" case no byte flip can produce.
type payload struct {
	Key statestore.Key
	At  time.Duration
	Dev *device.DeviceSnapshot
}

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

// blockFTLOf digs the BlockFTL snapshot out of a bare or cached stack.
func blockFTLOf(t *testing.T, p *payload) *ftl.BlockFTLSnapshot {
	t.Helper()
	top := p.Dev.Sim.Top
	if top.Cache != nil {
		top = top.Cache.Inner
	}
	if top.Block == nil {
		t.Fatal("state holds no BlockFTL")
	}
	return top.Block
}

// The fixtures under testdata/parent were written by the build of the commit
// before the BlockFTL's log table became a slot array and the map book's
// dirty set a bitset (format version 3, unchanged since):
//
//	uflip -device D -capacity 33554432 -micro Granularity -parallel 1 -statedir S -out O
//
// for D = kingston-dti (bare BlockFTL) and transcend-ssd16 (BlockFTL under a
// WriteCache): S/<key hash>.state and O/D.csv. If a profile edit changes the
// key hash, regenerate them the same way with the build that precedes the
// edit.
var parentFixtureCfg = paperexp.Config{Capacity: 32 << 20, Seed: 42, IOCount: 1024}

// TestParentStateFilesStillLoad is the state-file compatibility pin: this
// build loads the enforced states the parent build saved, saves them back
// byte for byte, and a Granularity plan started from each renders the parent's
// summary CSV.
func TestParentStateFilesStillLoad(t *testing.T) {
	for _, key := range []string{"kingston-dti", "transcend-ssd16"} {
		t.Run(key, func(t *testing.T) {
			cfg := parentFixtureCfg
			sk := paperexp.StateKey(key, cfg)
			fixture, err := os.ReadFile(filepath.Join("testdata", "parent", sk.Hash()+".state"))
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
			if _, p := openState(t, store.Path(sk)); len(blockFTLOf(t, p).Logs) == 0 || blockFTLOf(t, p).Book.Queued == 0 {
				t.Fatal("fixture pins nothing: no attached log or no dirty map page in the enforced state")
			}

			dev, err := profile.BuildDevice(key, cfg.Capacity)
			if err != nil {
				t.Fatal(err)
			}
			at, hit, err := store.Load(sk, dev)
			if err != nil || !hit {
				t.Fatalf("parent state: hit=%v err=%v", hit, err)
			}
			resaved, err := statestore.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			if err := resaved.Save(sk, dev, at); err != nil {
				t.Fatal(err)
			}
			if got, err := os.ReadFile(resaved.Path(sk)); err != nil || !bytes.Equal(got, fixture) {
				t.Fatalf("re-saved state differs from the parent's file (err=%v, %d vs %d bytes)", err, len(got), len(fixture))
			}

			cfg.Store = store
			hits := 0
			res, err := paperexp.RunBenchmark(context.Background(), key, cfg, paperexp.BenchmarkRequest{
				Micros:  []string{"Granularity"},
				Workers: 1,
				Stages: paperexp.Stages{StateEnforced: func(_ time.Duration, hit bool) {
					if hit {
						hits++
					}
				}},
			})
			if err != nil {
				t.Fatal(err)
			}
			if hits == 0 {
				t.Fatal("the plan enforced its state live instead of loading the parent's file")
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
				t.Fatalf("summary CSV from the parent's state differs from the parent's own (%d vs %d bytes)", csv.Len(), len(want))
			}
		})
	}
}

// TestCorruptLogTableIsQuarantined: a state file that passes every check of
// the container — magic, version, key, length, checksum, decode — but whose
// BlockFTL log table names one logical block twice must not load (two live
// slots for one block) and must not poison the cache: Load fails, the file is
// moved aside, and the next run misses and re-enforces.
func TestCorruptLogTableIsQuarantined(t *testing.T) {
	const spec = "kingston-dti"
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
	block := blockFTLOf(t, p)
	if len(block.Logs) == 0 {
		t.Fatal("enforced state has no attached log to duplicate")
	}
	block.Logs = append(block.Logs[:1:1], block.Logs[0])
	sealState(t, store.Path(k), header, p)

	fresh := func() device.Device {
		dev, err := profile.BuildDevice(spec, testCapacity)
		if err != nil {
			t.Fatal(err)
		}
		return dev
	}
	if _, hit, err := store.Load(k, fresh()); err == nil || hit {
		t.Fatalf("duplicate-LBN state: hit=%v err=%v, want an error", hit, err)
	}
	if _, err := os.Stat(store.Path(k) + ".corrupt"); err != nil {
		t.Fatalf("rejected state not quarantined: %v", err)
	}
	if _, hit, err := store.Load(k, fresh()); err != nil || hit {
		t.Fatalf("after quarantine: hit=%v err=%v, want a clean miss", hit, err)
	}
}
