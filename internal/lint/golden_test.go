package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"testing"
)

// moduleRoot returns the repository root; go test runs with the package
// directory (internal/lint) as the working directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	return root
}

// wantRE extracts the expectation regexps from `// want` comments in the
// golden fixtures, analysistest-style: // want `regexp`.
var wantRE = regexp.MustCompile("// want `([^`]*)`")

type wantDiag struct {
	re      *regexp.Regexp
	matched bool
}

// loadFixture loads one golden fixture package from testdata/src. The
// fixtures live under testdata so the go tool's wildcard patterns (and
// therefore uflint's own self-run) never descend into them; only an
// explicit path reaches them.
func loadFixture(t *testing.T, fixture string) []*Package {
	t.Helper()
	pkgs, err := Load(Config{Dir: moduleRoot(t)}, "./internal/lint/testdata/src/"+fixture)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", fixture, len(pkgs))
	}
	return pkgs
}

// runGolden checks one analyzer against one loaded fixture: every
// diagnostic must match a `// want` on its line, and every want must be
// matched.
func runGolden(t *testing.T, pkgs []*Package, analyzers []*Analyzer) {
	t.Helper()
	pkg := pkgs[0]

	wants := make(map[string][]*wantDiag) // "file:line" -> expectations
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				for _, m := range wantRE.FindAllStringSubmatch(c.Text, -1) {
					re, err := regexp.Compile(m[1])
					if err != nil {
						t.Fatalf("bad want pattern %q: %v", m[1], err)
					}
					pos := pkg.Fset.Position(c.Pos())
					key := fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
					wants[key] = append(wants[key], &wantDiag{re: re})
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no // want comments", pkg.Dir)
	}

	diags, err := Check(pkgs, analyzers)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		key := fmt.Sprintf("%s:%d", d.Pos.Filename, d.Pos.Line)
		text := fmt.Sprintf("%s(%s): %s", d.Analyzer, d.Class, d.Message)
		found := false
		for _, w := range wants[key] {
			if !w.matched && w.re.MatchString(text) {
				w.matched = true
				found = true
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !w.matched {
				t.Errorf("%s: no diagnostic matched want `%s`", key, w.re)
			}
		}
	}
}

// TestDetWallGolden runs detwall on its fixture as if the fixture sat in a
// simulation tree: its own import path is outside every one.
func TestDetWallGolden(t *testing.T) {
	pkgs := loadFixture(t, "detwall")
	pkgs[0].Path = pkgs[0].Module + "/internal/flash"
	runGolden(t, pkgs, []*Analyzer{DetWall})
}

func TestCloneGuardGolden(t *testing.T) {
	runGolden(t, loadFixture(t, "cloneguard"), []*Analyzer{CloneGuard})
}

func TestBatchContractGolden(t *testing.T) {
	runGolden(t, loadFixture(t, "batchcontract"), []*Analyzer{BatchContract})
}

// TestDetWallSkipsNonSimulationPackages pins the path policy: under its own
// import path, which is not under a simulation tree, the fixture package
// produces no detwall findings at all.
func TestDetWallSkipsNonSimulationPackages(t *testing.T) {
	pkgs := loadFixture(t, "detwall")
	diags, err := Check(pkgs, []*Analyzer{DetWall})
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Errorf("non-simulation package reported: %s", d)
	}
}
