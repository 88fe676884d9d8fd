package uflip_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestFuzzSmokeListsEveryTarget: `make fuzz-smoke` names its fuzz targets one
// by one. Every func Fuzz… of a _test.go must be on that list under its own
// package, and every listed target must exist, so a new target cannot be left
// out of CI's fuzz burst.
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)-fuzz '\^(Fuzz\w+)\$\$' .* (\./\S+)$`).FindAllSubmatch(makefile, -1) {
		listed[string(m[1])+" "+string(m[2])] = true
	}
	found := map[string]bool{}
	fuzzFunc := regexp.MustCompile(`(?m)^func (Fuzz\w+)\(`)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, "_test.go"):
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range fuzzFunc.FindAllSubmatch(src, -1) {
			found[string(m[1])+" ./"+filepath.ToSlash(filepath.Dir(path))] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for target := range found {
		if !listed[target] {
			t.Errorf("fuzz target %s is missing from the Makefile's fuzz-smoke list", target)
		}
	}
	for target := range listed {
		if !found[target] {
			t.Errorf("the Makefile's fuzz-smoke list names %s, which no _test.go defines", target)
		}
	}
	if len(found) == 0 {
		t.Fatal("no fuzz target found")
	}
}
