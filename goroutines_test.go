package uflip_test

import (
	"go/ast"
	"sort"
	"testing"
)

// startsGoroutines names the functions outside internal/par that may hold a
// go statement, and how many: the daemon's job workers and the HTTP listener
// of `uflip serve` live as long as the daemon does, which no fan-out of
// internal/par, returning before its caller does, can express.
var startsGoroutines = map[string]int{
	"uflip/internal/server.New": 1,
	"main@uflip.runServe":       1,
}

// TestOnlyParStartsGoroutines: product code runs its goroutines through
// internal/par (Each, Ordered), where the claim order, the first-error rule
// and the wait that no goroutine outlives are written once. A go statement
// anywhere else fails, unless its function is on startsGoroutines with that
// many; an entry whose function no longer holds them fails too.
func TestOnlyParStartsGoroutines(t *testing.T) {
	found := map[string]int{}
	err := walkProduct(func(pkg string, f *ast.File) {
		if pkg == "uflip/internal/par" {
			return
		}
		for _, decl := range f.Decls {
			name := pkg + ".<package scope>"
			if fn, ok := decl.(*ast.FuncDecl); ok {
				name = pkg + "." + receiver(fn) + fn.Name.Name
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				if _, ok := n.(*ast.GoStmt); ok {
					found[name]++
				}
				return true
			})
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for name := range found {
		names = append(names, name)
	}
	for name := range startsGoroutines {
		if _, ok := found[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got, want := found[name], startsGoroutines[name]; got != want {
			t.Errorf("%s holds %d go statements, %d allowed: fan out through internal/par, or list a goroutine that outlives its caller", name, got, want)
		}
	}
}
