// Book-keeping oracles for the translation layers that need no payload
// bytes: drive each FTL stack with application-shaped workloads and hold it
// to what its chips counted, to a clone taken half-way, and to every layer's
// invariant — across out-of-place block writes, read-modify-writes,
// log-block merges, reclamation, asynchronous reclamation and cache flushes.
// The suite runs under `make test`, i.e. with -race, in CI.
package ftl_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"uflip/internal/device"
	"uflip/internal/flash"
	"uflip/internal/ftl"
	"uflip/internal/workload"
)

const integrityLogical = 2 << 20 // 2 MiB keeps GC and merges busy

// integrityStack couples a translation stack with its name.
type integrityStack struct {
	name  string
	build func(t *testing.T) ftl.Translator
	// opsComplete: every flash operation is reported in some IO's Ops (no
	// journal discount, no background reclamation).
	opsComplete bool
}

// newTestArray builds two chips of at least raw bytes.
func newTestArray(t *testing.T, raw int64) *ftl.Array {
	t.Helper()
	arr, err := ftl.NewUniformArray(2, flash.SLC, raw)
	if err != nil {
		t.Fatal(err)
	}
	return arr
}

func newIntegrityPage(t *testing.T) *ftl.PageFTL {
	t.Helper()
	arr := newTestArray(t, integrityLogical+24*128*1024)
	cost := ftl.DefaultCostModel(flash.SLC)
	f, err := ftl.NewPageFTL(arr, ftl.PageConfig{
		LogicalBytes:  integrityLogical,
		WritePoints:   2,
		ReserveBlocks: 6,
		ReadSteal:     0.3,
		GCBatch:       2,
	}, cost)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func newIntegrityBlock(t *testing.T) *ftl.BlockFTL {
	t.Helper()
	arr := newTestArray(t, integrityLogical+8*128*1024)
	cost := ftl.DefaultCostModel(flash.SLC)
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

// integrityStacks returns the four stacks.
func integrityStacks() []integrityStack {
	cost := ftl.DefaultCostModel(flash.SLC)
	cacheCfg := ftl.CacheConfig{
		CapacityBytes: 256 * 1024, // small, so evictions churn
		Streams:       2,
		EvictBatch:    2,
	}
	return []integrityStack{
		{name: "page", build: func(t *testing.T) ftl.Translator { return newIntegrityPage(t) }},
		{name: "block", build: func(t *testing.T) ftl.Translator { return newIntegrityBlock(t) }, opsComplete: true},
		{name: "cache+page", build: func(t *testing.T) ftl.Translator {
			c, err := ftl.NewWriteCache(newIntegrityPage(t), cacheCfg, cost)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}},
		{name: "cache+block", build: func(t *testing.T) ftl.Translator {
			c, err := ftl.NewWriteCache(newIntegrityBlock(t), cacheCfg, cost)
			if err != nil {
				t.Fatal(err)
			}
			return c
		}, opsComplete: true},
	}
}

// do performs a write, or a read, of length bytes at off.
func do(tr ftl.Translator, write bool, off, length int64) (ftl.Ops, error) {
	if write {
		return tr.Write(off, length)
	}
	return tr.Read(off, length)
}

// snapshot captures the state of a stack.
func snapshot(t *testing.T, tr ftl.Translator) *ftl.TranslatorState {
	t.Helper()
	s, err := ftl.SnapshotTranslator(tr)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// replayIntegrity drives the stack with the ops, with periodic Idle calls
// feeding asynchronous reclamation, and holds it to three oracles. The chips
// must have counted exactly what the FTL's counters claim and, on an
// opsComplete stack, exactly the sum of the Ops returned. A clone taken
// half-way and driven with the rest of the stream must perform the same Ops
// on every IO and end in the original's state. Both must pass Audit.
func replayIntegrity(t *testing.T, st integrityStack, ops []workload.Op) {
	t.Helper()
	tr := st.build(t)
	var work flash.Stats
	var clone ftl.Translator
	cloneAt := len(ops) / 2
	for i, op := range ops {
		off, size, write := op.IO.Off, op.IO.Size, op.IO.Mode == device.Write
		if off+size > integrityLogical {
			t.Fatalf("op %d outside the logical space", i)
		}
		o, err := do(tr, write, off, size)
		if err != nil {
			t.Fatalf("op %d (write=%v): %v", i, write, err)
		}
		ftl.AddFlashWork(&work, o)
		if clone != nil {
			if co, err := do(clone, write, off, size); co != o || err != nil {
				t.Fatalf("op %d (write=%v): the clone performed %+v (%v), the original %+v", i, write, co, err, o)
			}
		}
		if i%64 == 63 {
			tr.Idle(5 * time.Millisecond)
			if clone != nil {
				clone.Idle(5 * time.Millisecond)
			}
		}
		if i == cloneAt {
			clone = tr.Clone()
		}
	}
	chips, claimed := ftl.FlashBooks(tr)
	if chips != claimed || (st.opsComplete && chips != work) {
		t.Fatalf("chips counted %+v, the FTL's counters claim %+v, the Ops stream sums to %+v", chips, claimed, work)
	}
	if !reflect.DeepEqual(snapshot(t, clone), snapshot(t, tr)) {
		t.Fatal("the clone driven with the second half of the stream ends in another state than the original")
	}
	for _, stack := range []ftl.Translator{tr, clone} {
		if err := ftl.Audit(stack); err != nil {
			t.Fatal(err)
		}
	}
}

// TestDataIntegrityUnderWorkloads holds all three translation layers (page
// FTL, block FTL, write cache over either) to the oracles of replayIntegrity
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
