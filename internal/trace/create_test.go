package trace

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestCreateMakesParents is the regression test for result files landing in
// fresh output trees: Create (used by every command-line output path —
// uflip -out, uflip workload -out, -dump-trace, -cpuprofile, -memprofile)
// must create missing parent directories instead of failing with a raw open
// error.
func TestCreateMakesParents(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "deeply", "nested", "out", "results.csv")
	f, err := Create(path)
	if err != nil {
		t.Fatalf("Create(%q): %v", path, err)
	}
	if _, err := f.WriteString("id\n"); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("file missing after Create: %v", err)
	}
	// A bare file name (no directory component) must keep working.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if err := os.Chdir(wd); err != nil {
			t.Fatal(err)
		}
	}()
	f2, err := Create("bare.csv")
	if err != nil {
		t.Fatalf("Create with bare name: %v", err)
	}
	f2.Close()
}

// TestSaveJSONMakesParents pins the JSON result path the same way.
func TestSaveJSONMakesParents(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a", "b", "runs.jsonl")
	recs := []RunRecord{{ID: "x", Device: "mem", TotalSeconds: time.Second.Seconds()}}
	if err := SaveJSON(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := LoadJSON(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].ID != "x" {
		t.Fatalf("round trip gave %+v", got)
	}
}

// TestSaveSummaryCSV pins the summary-CSV result path: the file lands in a
// fresh nested directory holding exactly the bytes WriteSummaryCSV renders,
// and an unwritable destination is an error, not a silent exit 0.
func TestSaveSummaryCSV(t *testing.T) {
	dir := t.TempDir()
	recs := []RunRecord{
		{ID: "Order/SR/1", Device: "mem", Micro: "Order", Base: "SR", Param: "Incr", Value: 1, TotalSeconds: 0.25},
		{ID: "workload/oltp/seg=0", Device: "mem", Micro: "workload", Param: "Segment", Faults: 2, Retries: 3},
	}
	var want bytes.Buffer
	if err := WriteSummaryCSV(&want, recs); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "a", "b", "runs.csv")
	if err := SaveSummaryCSV(path, recs); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
		t.Fatalf("file holds\n%s\nwant\n%s", got, want.Bytes())
	}
	if err := SaveSummaryCSV(dir, recs); err == nil {
		t.Fatal("SaveSummaryCSV onto a directory succeeded")
	}
}
