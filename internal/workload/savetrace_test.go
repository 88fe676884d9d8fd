package workload

import (
	"os"
	"path/filepath"
	"testing"

	"uflip/internal/device"
)

// TestSaveTraceMakesParents is the regression test for `uflip workload
// -dump-trace` pointing into a directory that does not exist yet: SaveOps
// must create the parents and the trace must load back identically.
func TestSaveTraceMakesParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "traces", "2026", "smoke.csv")
	ops := []Op{
		{IO: device.IO{Mode: device.Write, Off: 4096, Size: 8192}},
		{IO: device.IO{Mode: device.Read, Off: 0, Size: 512}, Gap: 1500},
	}
	if err := SaveOps(path, ops); err != nil {
		t.Fatalf("SaveOps into missing directories: %v", err)
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := ReadOps(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(ops) {
		t.Fatalf("loaded %d ops, want %d", len(got), len(ops))
	}
	for i := range ops {
		if got[i] != ops[i] {
			t.Fatalf("op %d round trip drifts: %+v vs %+v", i, got[i], ops[i])
		}
	}
}
