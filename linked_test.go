package uflip_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// keptUnlinked names every function that no cmd/* binary links, under the
// reason it stays in the product. A name is the linker's:
// "uflip/internal/flash.(*Chip).Audit", "uflip/internal/ftl.Audit"; type
// arguments are dropped, so a generic function matches all its instantiations.
var keptUnlinked = map[string][]string{
	// Validators the tests, the fuzzers and the benchmark's checks run on a live
	// stack, and what they call; a binary never asks whether its own state is
	// consistent.
	"audits": {
		"uflip/internal/device.Audit",
		"uflip/internal/flash.(*Chip).Audit",
		"uflip/internal/ftl.Audit",
		"uflip/internal/ftl.checkDerived",
		"uflip/internal/ftl.(*BlockFTL).checkDerived",
		"uflip/internal/ftl.(*PageFTL).checkDerived",
		"uflip/internal/ftl.(*WriteCache).checkDerived",
		"uflip/internal/ftl.(*mapBook).checkDerived",
		"uflip/internal/ftl.(*wearQueue).checkDerived",
		"uflip/internal/ftl.(*wearQueue).appendKeys",
	},
	// The size of an FTL's free pool, which TestStackBytesGolden digests and
	// the FTL tests compare; no binary asks it.
	"free pool": {
		"uflip/internal/ftl.(*flashBooks).FreeBlocks",
	},
	// Reached by the ./benchmark binary or its tests, which are not under cmd/;
	// these leave when the benchmark stops calling them.
	"benchmark-held": {
		"uflip/internal/device.NewMemDevice",
		"uflip/internal/device.(*MemDevice).Capacity",
		"uflip/internal/device.(*MemDevice).CloneDevice",
		"uflip/internal/device.(*MemDevice).Name",
		"uflip/internal/device.(*MemDevice).ResetFrom",
		"uflip/internal/device.(*MemDevice).SectorSize",
		"uflip/internal/device.(*MemDevice).Submit",
		"uflip/internal/device.(*MemDevice).SubmitBatch",
		"uflip/internal/device.(*CompositeDevice).Member",
		"uflip/internal/device.(*CompositeDevice).Members",
		"uflip/internal/device.(*FaultyDevice).Inner",
		"uflip/internal/device.(*SimDevice).Top",
		"uflip/internal/engine.(*Master).Clone",
		"uflip/internal/engine.ExecuteJobs", // engine.jobs_overhead_us; product code runs ExecuteEach
		"uflip/internal/flash.(*Chip).ProgramPage",
		"uflip/internal/flash.(*Chip).ReadPage",
		"uflip/internal/ftl.(*Array).Geometry",
		"uflip/internal/ftl.(*Array).ProgramPage",
		"uflip/internal/ftl.Stats.WriteAmplification",
		"uflip/internal/paperexp.Records",         // the daemon and CLI append to kept records: AppendRecords
		"uflip/internal/paperexp.WorkloadRecords", // and AppendWorkloadRecords

		"uflip/internal/server/events.(*Log).Len",
		"uflip/internal/statestore.(*Store).Dir",
		"uflip/internal/stats.Percentiles", // a replay selects in its RunState's stats.Selector
		"uflip/internal/trace.(*RunRecord).ResponseTimes",
		"uflip/internal/workload.OpenUTRFile",
		"uflip/internal/workload.(*UTRSource).SetLabel",
		"uflip/internal/workload.SaveUTR",
		"uflip/internal/workload.WriteTrace",
		"uflip/internal/workload.WriteUTR",
	},
}

// TestUnlinkedFunctionsAreKept: every function `make loc` counts is linked
// into some cmd/* binary or is on keptUnlinked, and every kept name is still
// declared and still unlinked. API that only tests call belongs in a _test.go
// file, so a new test-only function fails here, and so does a kept one that a
// binary starts to call or that was deleted.
//
// The binaries are built without inlining (-gcflags=all=-l), so every function
// a binary can reach keeps its own text symbol; `go tool nm` lists them.
func TestUnlinkedFunctionsAreKept(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	bin := t.TempDir()
	build := exec.Command(goTool, "build", "-gcflags=all=-l", "-o", bin+string(os.PathSeparator), "./cmd/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./cmd/...: %v\n%s", err, out)
	}
	linked := map[string]bool{} // "uflip/internal/x.F", or "main@uflip.F" for binary uflip
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		name := strings.TrimSuffix(e.Name(), ".exe")
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			f := strings.Fields(sc.Text())
			if len(f) < 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			// An assembly function's symbol names its ABI: "p.F.abi0".
			sym := strings.TrimSuffix(dropTypeArgs(strings.Join(f[2:], " ")), ".abi0")
			if rest, ok := strings.CutPrefix(sym, "main."); ok {
				sym = "main@" + name + "." + rest
			}
			linked[sym] = true
		}
	}

	declared, err := declaredFuncs()
	if err != nil {
		t.Fatal(err)
	}
	if len(declared) == 0 || len(linked) == 0 {
		t.Fatal("found no declared or no linked function")
	}
	kept := map[string]string{}
	for reason, names := range keptUnlinked {
		for _, n := range names {
			if other, dup := kept[n]; dup {
				t.Errorf("%s is kept both as %s and as %s", n, other, reason)
			}
			kept[n] = reason
		}
	}
	var missing []string
	for sym := range declared {
		if !linked[sym] && kept[sym] == "" {
			missing = append(missing, sym)
		}
	}
	sort.Strings(missing)
	for _, sym := range missing {
		t.Errorf("no cmd/* binary links %s: delete it, move it into a _test.go file, or keep it on a list", sym)
	}
	for sym, reason := range kept {
		switch {
		case !declared[sym]:
			t.Errorf("%s is kept (%s) but no longer declared: take it off the list", sym, reason)
		case linked[sym]:
			t.Errorf("%s is kept (%s) but a cmd/* binary links it: take it off the list", sym, reason)
		}
	}
}

// declaredFuncs names, as the linker does, every function and method declared
// in a non-test Go file that `make loc` counts and this platform builds. A main package's function is
// "main@<binary>.F". init functions are left out: they have no name of their
// own, and the linker keeps every init of a linked package.
func declaredFuncs() (map[string]bool, error) {
	out := map[string]bool{}
	err := walkProduct(func(pkg string, f *ast.File) {
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			out[pkg+"."+receiver(fn)+fn.Name.Name] = true
		}
	})
	return out, err
}

// walkProduct parses every non-test Go file that `make loc` counts — the
// repository without benchmark/, the linter's fixtures and hidden
// directories — and that the platform the test runs on builds (CI runs the
// suite on amd64 and 386, which between them build every file), and hands it
// to visit with its package named as the linker
// names it: "uflip/internal/x", or "main@<binary>" for a main package.
func walkProduct(visit func(pkg string, f *ast.File)) error {
	fset := token.NewFileSet()
	return filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || path == "benchmark" || path == filepath.Join("internal", "lint", "testdata")):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		pkg := "uflip"
		if dir != "." {
			pkg += "/" + dir
		}
		if f.Name.Name == "main" {
			pkg = "main@" + filepath.Base(dir)
		}
		visit(pkg, f)
		return nil
	})
}

// receiver is "(*T)." or "T." for a method, "" for a function.
func receiver(fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return ""
	}
	typ := fn.Recv.List[0].Type
	star := false
	if s, ok := typ.(*ast.StarExpr); ok {
		star, typ = true, s.X
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	name := typ.(*ast.Ident).Name
	if star {
		return "(*" + name + ")."
	}
	return name + "."
}

// dropTypeArgs removes every bracketed type-argument list from a symbol, so
// "p.(*q[go.shape.int]).m" reads "p.(*q).m".
func dropTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
