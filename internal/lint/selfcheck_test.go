package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestModuleStaticClean self-applies the full static suite to the whole
// module, test files included: the tree must stay finding-free. A new
// finding means either the code regressed or it needs a justified
// annotation — this test is the same bar `make lint` enforces in CI.
func TestModuleStaticClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	pkgs, err := Load(Config{Dir: moduleRoot(t), Tests: true}, "uflip/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module pattern is not matching", len(pkgs))
	}
	diags, err := Check(pkgs, Analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("%s", d)
	}
}

// TestModuleEscapesClean runs the allocfree escape gate against the
// committed allowlist: no new heap escapes on //uflint:hotpath functions.
func TestModuleEscapesClean(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the whole module with -gcflags=-m")
	}
	res, err := RunEscapes(moduleRoot(t), []string{"./..."}, DefaultAllowFile)
	if err != nil {
		t.Fatal(err)
	}
	if res.HotFuncs == 0 {
		t.Fatal("no //uflint:hotpath functions found; the annotations are gone")
	}
	for _, e := range res.New {
		t.Errorf("new hot-path escape: %s", e)
	}
	for _, s := range res.Stale {
		t.Logf("stale allowlist entry: %s", s)
	}
}

// TestDetWallGuardsSimulationTree is the CI guard for the wall-clock
// invariant: it builds a scratch module literally named uflip, drops a
// time.Now call into its internal/flash package, and asserts detwall
// reports it under the real path policy, on the package as loaded. If the
// policy wiring ever breaks (renamed module, dropped prefix match, detwall
// unwired), this fails before a wall-clock call can slip into the
// simulation tree unnoticed.
func TestDetWallGuardsSimulationTree(t *testing.T) {
	dir := t.TempDir()
	write := func(rel, content string) {
		t.Helper()
		path := filepath.Join(dir, rel)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module uflip\n\ngo 1.24\n")
	write("internal/flash/flash.go", `package flash

import "time"

// Stamp leaks the wall clock into simulated time.
func Stamp() time.Time { return time.Now() }
`)

	pkgs, err := Load(Config{Dir: dir, Env: []string{"GOWORK=off"}}, "./...")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := Check(pkgs, []*Analyzer{DetWall})
	if err != nil {
		t.Fatal(err)
	}
	var hit bool
	for _, d := range diags {
		if d.Class == "wallclock" && strings.Contains(d.Message, "time.Now") {
			hit = true
		}
	}
	if !hit {
		t.Fatalf("detwall did not report the injected time.Now; diagnostics: %v", diags)
	}
}
