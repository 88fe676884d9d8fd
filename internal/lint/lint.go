package lint

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// An Analyzer is one named check. Run inspects a single type-checked package
// through the Pass and reports findings; the driver applies //uflint:allow
// suppression afterwards, so analyzers report unconditionally.
type Analyzer struct {
	Name string
	Doc  string
	Run  func(*Pass) error
}

// Analyzers is the full static suite, in the order uflint runs them. The
// fourth check, allocfree, is not AST-based — it is the escape gate behind
// `uflint -escapes` (see escapes.go).
var Analyzers = []*Analyzer{DetWall, CloneGuard, BatchContract}

// A Diagnostic is one finding at a source position. Class is the annotation
// class an //uflint:allow comment must name to suppress it.
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Class    string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s(%s): %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Class, d.Message)
}

// A Pass carries one package through one analyzer.
type Pass struct {
	Pkg *Package
	// Sim marks the package as a simulation package: detwall only applies
	// there. Check derives it from the import path (IsSimulationPackage).
	Sim bool

	analyzer *Analyzer
	dirs     *directiveIndex
	diags    *[]Diagnostic
}

// Reportf records a finding of the given annotation class at pos.
func (p *Pass) Reportf(pos token.Pos, class, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Pos:      p.Pkg.Fset.Position(pos),
		Analyzer: p.analyzer.Name,
		Class:    class,
		Message:  fmt.Sprintf(format, args...),
	})
}

// fieldExempt reports whether the struct field declared at pos carries an
// //uflint:shared or //uflint:scratch annotation (cloneguard's escape hatch).
func (p *Pass) fieldExempt(pos token.Pos) bool {
	position := p.Pkg.Fset.Position(pos)
	return p.dirs.fieldMarkAt(position.Filename, position.Line)
}

// simPackages are the module-relative package trees whose code must stay
// deterministic: everything that executes between a seed and a result.
// Server, client, api, report, stats, statestore and profile code may touch
// the real clock; these may not.
var simPackages = []string{
	"internal/flash",
	"internal/ftl",
	"internal/device",
	"internal/core",
	"internal/methodology",
	"internal/engine",
	"internal/paperexp",
	"internal/workload",
	"internal/trace",
}

// IsSimulationPackage reports whether the import path (relative to the
// module path) is one of the simulation packages detwall polices.
func IsSimulationPackage(modulePath, importPath string) bool {
	rel, ok := strings.CutPrefix(importPath, modulePath+"/")
	if !ok {
		return false
	}
	for _, p := range simPackages {
		if rel == p || strings.HasPrefix(rel, p+"/") {
			return true
		}
	}
	return false
}

// Check runs the analyzers over the packages and returns the surviving
// diagnostics, sorted by position: findings suppressed by a well-formed
// //uflint:allow comment (same line or the line directly above) are dropped,
// and malformed //uflint: directives are themselves reported.
func Check(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, pkg := range pkgs {
		dirs := scanDirectives(pkg.Fset, pkg.Files)
		var raw []Diagnostic
		pass := &Pass{
			Pkg:   pkg,
			Sim:   IsSimulationPackage(pkg.Module, pkg.Path),
			dirs:  dirs,
			diags: &raw,
		}
		for _, a := range analyzers {
			pass.analyzer = a
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %v", a.Name, pkg.Path, err)
			}
		}
		for _, d := range raw {
			if dirs.allowedAt(d.Pos.Filename, d.Pos.Line, d.Class) {
				continue
			}
			out = append(out, d)
		}
		out = append(out, dirs.bad...)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out, nil
}
