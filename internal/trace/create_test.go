package trace

import (
	"errors"
	"io"
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

// TestWriteAtomic pins the one temp+fsync+rename writer: a write that fails
// or panics half-way leaves neither the target nor a temporary file, a
// successful one leaves exactly the target, and a failed overwrite leaves the
// previous content in place.
func TestWriteAtomic(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "fresh")
	path := filepath.Join(dir, "artifact")
	listing := func() []string {
		entries, err := os.ReadDir(dir)
		if err != nil && !os.IsNotExist(err) {
			t.Fatal(err)
		}
		var names []string
		for _, e := range entries {
			names = append(names, e.Name())
		}
		return names
	}
	boom := errors.New("boom")
	half := func(then func()) func(io.Writer) error {
		return func(w io.Writer) error {
			if _, err := io.WriteString(w, "half a fi"); err != nil {
				return err
			}
			then()
			return boom
		}
	}

	if err := WriteAtomic(path, half(func() {})); !errors.Is(err, boom) {
		t.Fatalf("failing write returned %v, want boom", err)
	}
	if got := listing(); len(got) != 0 {
		t.Fatalf("failed write left %v", got)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("panic in write was swallowed")
			}
		}()
		_ = WriteAtomic(path, half(func() { panic("mid-write") }))
	}()
	if got := listing(); len(got) != 0 {
		t.Fatalf("panicking write left %v", got)
	}

	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if got := listing(); len(got) != 1 || got[0] != "artifact" {
		t.Fatalf("successful write left %v, want exactly the target", got)
	}
	if err := WriteAtomic(path, half(func() {})); !errors.Is(err, boom) {
		t.Fatalf("failing overwrite returned %v, want boom", err)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "first" || len(listing()) != 1 {
		t.Fatalf("after a failed overwrite: content %q, err %v, directory %v", got, err, listing())
	}
	if err := WriteAtomic(path, func(w io.Writer) error { return WriteJSON(w, []RunRecord{{ID: "x", RTs: []float64{0.001}}}) }); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadJSON(path); err != nil || len(got) != 1 || got[0].ID != "x" || len(listing()) != 1 {
		t.Fatalf("streamed overwrite: %+v, err %v, directory %v", got, err, listing())
	}
}
