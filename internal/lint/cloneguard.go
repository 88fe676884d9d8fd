package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CloneGuard catches the "added a field, forgot Clone" bug class at compile
// time: for every struct type with a Clone/Snapshot/Restore/ResetFrom/
// CopyFrom/Audit method (any case), each field of the struct must be
// referenced somewhere in that method's body, or carry an //uflint:shared or
// //uflint:scratch annotation. A whole-struct copy (`*recv` in the body)
// references every field at once, and a field referenced in a method of the
// same type that the body calls counts as referenced: a layer's Clone is
// "ResetFrom into a zero value", and the fields are checked where the copying
// happens.
//
// The simulator keeps state as data: a layer is an immutable configuration
// struct, one exported-field state struct it runs on, and a derived/scratch
// group. The state struct's copyFrom and audit (its one copy routine and its
// one validator) are each checked field by field; the layer's resetFrom copies
// the configuration, copies the state and rederives the rest, so it references
// all three, and a method that skips a group takes one annotation for it.
//
// The differential clone-vs-rebuild oracles from PRs 3/5/8 catch a missed
// field only when a test drives state through it; this check fires the
// moment the field is declared.
var CloneGuard = &Analyzer{
	Name: "cloneguard",
	Doc: `every field of a struct with a Clone/Snapshot/Restore/ResetFrom method
must be referenced in that method (or a method of the type it calls) or
annotated //uflint:shared or //uflint:scratch`,
	Run: runCloneGuard,
}

// isCloneMethodName matches lower- and upper-case variants: the repo's
// internal routines (PageFTLState.copyFrom, PageFTL.resetFrom) carry the same
// contract as the exported ones (flash.ChipState.CopyFrom).
func isCloneMethodName(name string) bool {
	switch strings.ToLower(name) {
	case "clone", "snapshot", "restore", "resetfrom", "copyfrom", "audit":
		return true
	}
	return false
}

func runCloneGuard(pass *Pass) error {
	info := pass.Pkg.Info
	methods := make(map[*types.Func]*ast.FuncDecl)
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Recv != nil && fd.Body != nil {
				if fn, ok := info.Defs[fd.Name].(*types.Func); ok {
					methods[fn] = fd
				}
			}
		}
	}
	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Recv == nil || fd.Body == nil || !isCloneMethodName(fd.Name.Name) {
				continue
			}
			fn, ok := info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			recv := fn.Signature().Recv()
			if recv == nil {
				continue
			}
			st, ok := derefStruct(recv.Type())
			if !ok || st.NumFields() == 0 {
				continue
			}
			checkCloneMethod(pass, fd, recv, st, methods)
		}
	}
	return nil
}

// derefStruct unwraps a (possibly pointer) receiver type to its struct
// underlying type.
func derefStruct(t types.Type) (*types.Struct, bool) {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}

func checkCloneMethod(pass *Pass, fd *ast.FuncDecl, recv *types.Var, st *types.Struct, methods map[*types.Func]*ast.FuncDecl) {
	info := pass.Pkg.Info

	// Field identity across generic instantiation is by declaration
	// position: the instantiated field objects keep the source positions of
	// the generic declaration.
	referenced := make(map[int]bool, st.NumFields())
	wholeCopy := false
	visited := map[*ast.FuncDecl]bool{fd: true}
	var walk func(fd *ast.FuncDecl)
	walk = func(fd *ast.FuncDecl) {
		// Identify the receiver's object so `cp := *c` (a whole-struct copy,
		// which reads every field) can be recognized.
		var recvObj types.Object
		if names := fd.Recv.List[0].Names; len(names) == 1 {
			recvObj = info.Defs[names[0]]
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.Ident:
				if v, ok := info.Uses[n].(*types.Var); ok && v.IsField() {
					referenced[int(v.Pos())] = true
				}
			case *ast.StarExpr:
				if id, ok := n.X.(*ast.Ident); ok && recvObj != nil && info.Uses[id] == recvObj {
					wholeCopy = true
				}
			case *ast.SelectorExpr:
				// A method of the same struct type, on any value of it.
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.MethodVal {
					break
				}
				callee := methods[sel.Obj().(*types.Func).Origin()]
				if on, ok := derefStruct(sel.Recv()); ok && on == st && callee != nil && !visited[callee] {
					visited[callee] = true
					walk(callee)
				}
			}
			return true
		})
	}
	walk(fd)
	if wholeCopy {
		return
	}
	for i := 0; i < st.NumFields(); i++ {
		fld := st.Field(i)
		if referenced[int(fld.Pos())] || pass.fieldExempt(fld.Pos()) {
			continue
		}
		pass.Reportf(fld.Pos(), "clonefield",
			"field %s is not referenced in (%s).%s; clone it there or annotate it //uflint:shared or //uflint:scratch",
			fld.Name(), types.TypeString(recv.Type(), types.RelativeTo(pass.Pkg.Types)), fd.Name.Name)
	}
}
