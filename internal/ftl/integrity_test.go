// Data-integrity oracle for the translation layers: drive each FTL stack
// with application-shaped workloads through the data plane and verify, on
// every read, that the device returns exactly the last bytes written to each
// logical address — across unit relocations, read-modify-writes, log-block
// merges, garbage collection, asynchronous reclamation and cache destages.
// The suite runs under `make test`, i.e. with -race, in CI.
package ftl_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/workload"
)

const integrityLogical = 2 << 20 // 2 MiB keeps GC and merges busy

// integrityStack couples a data-plane translation stack with its name.
type integrityStack struct {
	name  string
	build func(t *testing.T) ftl.DataPlane
	// opsComplete: every flash operation is reported in some IO's Ops (no
	// journal discount, no background reclamation or destaging).
	opsComplete bool
}

func newDataArray(t *testing.T, raw int64) *ftl.Array {
	t.Helper()
	arr, err := ftl.NewUniformArray(2, flash.SLC, raw, flash.WithDataStorage())
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func newIntegrityPage(t *testing.T) *ftl.PageFTL {
	t.Helper()
	arr := newDataArray(t, integrityLogical+24*128*1024)
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	f, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes:    integrityLogical,
		UnitBytes:       32 * 1024,
		WritePoints:     2,
		ReserveBlocks:   6,
		AsyncReclaim:    true,
		ReadSteal:       0.3,
		GCBatch:         2,
		MapDirtyLimit:   4,
		MapUnitsPerPage: 16,
		JournalMaxBytes: 16 * 1024,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newIntegrityBlock(t *testing.T) *ftl.BlockFTL {
	t.Helper()
	arr := newDataArray(t, integrityLogical+8*128*1024)
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	f, err := ftl.NewBlockFTL(arr, ftl.BlockConfig{
		LogicalBytes:    integrityLogical,
		LogBlocks:       3,
		MapDirtyLimit:   2,
		MapUnitsPerPage: 8,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func integrityStacks() []integrityStack {
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	cacheCfg := ftl.CacheConfig{
		CapacityBytes: 256 * 1024, // small, so evictions and destages churn
		LineBytes:     4096,
		RegionBytes:   128 * 1024,
		Streams:       2,
		EvictBatch:    2,
		DestageOnIdle: true,
	}
	return []integrityStack{
		{name: "page", build: func(t *testing.T) ftl.DataPlane { return newIntegrityPage(t) }},
		{name: "block", build: func(t *testing.T) ftl.DataPlane { return newIntegrityBlock(t) }, opsComplete: true},
		{name: "cache+page", build: func(t *testing.T) ftl.DataPlane {
			c, err := ftl.NewWriteCache(newIntegrityPage(t), cacheCfg, cost)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{name: "cache+block", build: func(t *testing.T) ftl.DataPlane {
			c, err := ftl.NewWriteCache(newIntegrityBlock(t), cacheCfg, cost)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
	}
}

// fillPayload writes the deterministic byte pattern of write #n into buf.
func fillPayload(buf []byte, n int) {
	for j := range buf {
		buf[j] = byte(n*131 + j*7 + 1)
	}
}

// replayIntegrity drives the stack with the ops, mirroring every write into
// the shadow image and checking every read against it. Periodic Idle calls
// feed asynchronous reclamation and cache destaging; a mid-stream clone must
// satisfy the same oracle afterwards. The data plane's run-granular flash
// calls are held to the books as well: the chips must have counted exactly
// what the FTL's counters claim and, on an opsComplete stack, exactly the
// sum of the Ops returned.
func replayIntegrity(t *testing.T, st integrityStack, ops []workload.Op) {
	t.Helper()
	dp := st.build(t)
	var work flash.Stats
	shadow := make([]byte, integrityLogical)
	payload := make([]byte, 64*1024)
	got := make([]byte, 64*1024)
	var clone ftl.DataPlane
	cloneAt := len(ops) / 2
	for i, op := range ops {
		off, size := op.IO.Off, op.IO.Size
		if off+size > integrityLogical {
			t.Fatalf("op %d outside the logical space", i)
		}
		if op.IO.Mode == device.Write {
			p := payload[:size]
			fillPayload(p, i)
			o, err := dp.WriteData(off, p)
			if err != nil {
				t.Fatalf("op %d: WriteData: %v", i, err)
			}
			ftl.AddFlashWork(&work, o)
			copy(shadow[off:off+size], p)
		} else {
			g := got[:size]
			o, err := dp.ReadData(off, g)
			if err != nil {
				t.Fatalf("op %d: ReadData: %v", i, err)
			}
			ftl.AddFlashWork(&work, o)
			if !bytes.Equal(g, shadow[off:off+size]) {
				t.Fatalf("op %d: read [%d,+%d) returned stale or foreign bytes", i, off, size)
			}
		}
		if i%64 == 63 {
			dp.(ftl.Translator).Idle(5 * time.Millisecond)
		}
		if i == cloneAt {
			clone = dp.(ftl.Translator).Clone().(ftl.DataPlane)
		}
	}
	chips, claimed := ftl.FlashBooks(dp.(ftl.Translator))
	if chips != claimed || (st.opsComplete && chips != work) {
		t.Fatalf("chips counted %+v, the FTL's counters claim %+v, the Ops stream sums to %+v", chips, claimed, work)
	}
	if chips, claimed := ftl.FlashBooks(clone.(ftl.Translator)); chips != claimed {
		t.Fatalf("clone: chips counted %+v, the FTL's counters claim %+v", chips, claimed)
	}
	// The clone froze the half-way state, including every stored payload;
	// its reads must match the half-way shadow. Rebuild it by replaying the
	// write prefix into a fresh shadow.
	half := make([]byte, integrityLogical)
	for i, op := range ops[:cloneAt+1] {
		if op.IO.Mode == device.Write {
			p := payload[:op.IO.Size]
			fillPayload(p, i)
			copy(half[op.IO.Off:op.IO.Off+op.IO.Size], p)
		}
	}
	for _, off := range []int64{0, 8192, integrityLogical / 2, integrityLogical - 32768} {
		g := got[:32768]
		if _, err := clone.ReadData(off, g); err != nil {
			t.Fatalf("clone ReadData: %v", err)
		}
		if !bytes.Equal(g, half[off:off+32768]) {
			t.Fatalf("clone read [%d,+32768) diverges from the snapshot state", off)
		}
	}
	for _, stack := range []ftl.DataPlane{dp, clone} {
		if err := ftl.Audit(stack.(ftl.Translator)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDataIntegrityUnderWorkloads is the read-after-write oracle across all
// three translation layers (page FTL, block FTL, write cache over either)
// under the zipf and oltp workload generators.
func TestDataIntegrityUnderWorkloads(t *testing.T) {
	gens := []workload.Generator{
		workload.OLTP{PageSize: 8192, TargetSize: integrityLogical, ReadFraction: 0.5, Count: 2500, Seed: 11},
		workload.Zipfian{PageSize: 8192, TargetSize: integrityLogical, S: 1.2, ReadFraction: 0.4, Count: 2500, Seed: 13},
	}
	for _, st := range integrityStacks() {
		for _, gen := range gens {
			t.Run(fmt.Sprintf("%s/%s", st.name, gen.Name()), func(t *testing.T) {
				ops, err := gen.Generate()
				if err != nil {
					t.Fatal(err)
				}
				replayIntegrity(t, st, ops)
			})
		}
	}
}

// TestDataIntegrityUnaligned stresses the read-modify-write edges the page
// generators never produce: sub-page, misaligned, unit-crossing writes.
func TestDataIntegrityUnaligned(t *testing.T) {
	for _, st := range integrityStacks() {
		t.Run(st.name, func(t *testing.T) {
			var ops []workload.Op
			z := uint64(0x9E3779B97F4A7C15)
			for i := 0; i < 1200; i++ {
				z ^= z << 13
				z ^= z >> 7
				z ^= z << 17
				size := int64(512 + z%120*512) // 0.5 .. 60 KB
				off := int64(z>>17) % (integrityLogical - size)
				off -= off % 512
				mode := device.Write
				if i%3 == 2 {
					mode = device.Read
				}
				ops = append(ops, workload.Op{IO: device.IO{Mode: mode, Off: off, Size: size}})
			}
			replayIntegrity(t, st, ops)
		})
	}
}

// TestDataPlaneDisabled pins that a timing-only stack reports
// ErrNoDataStorage instead of silently returning garbage.
func TestDataPlaneDisabled(t *testing.T) {
	arr, err := ftl.NewUniformArray(1, flash.SLC, 1<<20+8*128*1024)
	if err != nil {
		t.Fatal(err)
	}
	cost := ftl.DefaultCostModel(flash.TypicalTiming(flash.SLC), 2112)
	f, err := ftl.NewBlockFTL(arr, ftl.BlockConfig{
		LogicalBytes: 1 << 20, LogBlocks: 2, MapDirtyLimit: 2, MapUnitsPerPage: 8,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	if f.StoresData() {
		t.Fatal("timing-only stack claims data storage")
	}
	if _, err := f.WriteData(0, make([]byte, 512)); err != ftl.ErrNoDataStorage {
		t.Fatalf("WriteData on timing-only stack gave %v", err)
	}
	if _, err := f.ReadData(0, make([]byte, 512)); err != ftl.ErrNoDataStorage {
		t.Fatalf("ReadData on timing-only stack gave %v", err)
	}
}
