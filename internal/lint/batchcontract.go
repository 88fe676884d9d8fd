package lint

import (
	"go/ast"
	"go/types"
)

// BatchContract enforces the SubmitBatch error contract at every call site:
// the returned error carries the partial-completion state (*device.BatchError
// with done[:Index] valid), so discarding it silently drops completed work,
// and extracting it with a type assertion instead of errors.As breaks as
// soon as a wrapper (composite member error, retry wrapper, fmt.Errorf %w)
// sits in between.
var BatchContract = &Analyzer{
	Name: "batchcontract",
	Doc: `SubmitBatch/SubmitBatchRetry/Drive errors must be handled, and BatchError
must be extracted with errors.As, never a type assertion`,
	Run: runBatchContract,
}

// batchSubmitNames are the callee names whose error result carries the
// batch contract. Matching is by name: the contract is repo-wide and every
// device (SimDevice, CompositeDevice, FaultyDevice, MemDevice, FileDevice,
// all running SerialSubmitBatch) shares these names.
var batchSubmitNames = map[string]bool{
	"SubmitBatch":      true,
	"SubmitBatchRetry": true,
	"Drive":            true,
}

func runBatchContract(pass *Pass) error {
	info := pass.Pkg.Info
	for _, f := range pass.Pkg.Files {
		parents := make(map[ast.Node]ast.Node)
		var stack []ast.Node
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return false
			}
			if len(stack) > 0 {
				parents[n] = stack[len(stack)-1]
			}
			stack = append(stack, n)

			switch n := n.(type) {
			case *ast.CallExpr:
				checkBatchCall(pass, parents, n)
			case *ast.TypeAssertExpr:
				if n.Type != nil && isBatchErrorType(info, n.Type) {
					pass.Reportf(n.Pos(), "batchas",
						"type assertion on *BatchError misses wrapped errors; use errors.As")
				}
			case *ast.TypeSwitchStmt:
				for _, stmt := range n.Body.List {
					cc, ok := stmt.(*ast.CaseClause)
					if !ok {
						continue
					}
					for _, t := range cc.List {
						if isBatchErrorType(info, t) {
							pass.Reportf(t.Pos(), "batchas",
								"type switch on *BatchError misses wrapped errors; use errors.As")
						}
					}
				}
			}
			return true
		})
	}
	return nil
}

func checkBatchCall(pass *Pass, parents map[ast.Node]ast.Node, call *ast.CallExpr) {
	info := pass.Pkg.Info
	var calleeID *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.SelectorExpr:
		calleeID = fun.Sel
	case *ast.Ident:
		calleeID = fun
	default:
		return
	}
	if !batchSubmitNames[calleeID.Name] {
		return
	}
	fn, ok := info.Uses[calleeID].(*types.Func)
	if !ok {
		return
	}
	// The contract rides on the trailing error result.
	results := fn.Signature().Results()
	if results.Len() == 0 || !isErrorType(results.At(results.Len()-1).Type()) {
		return
	}

	switch parent := parents[call].(type) {
	case *ast.ExprStmt:
		pass.Reportf(call.Pos(), "batcherr",
			"%s error discarded; the BatchError carries the partial-completion state", calleeID.Name)
	case *ast.GoStmt, *ast.DeferStmt:
		pass.Reportf(call.Pos(), "batcherr",
			"%s error discarded by go/defer; the BatchError carries the partial-completion state", calleeID.Name)
	case *ast.AssignStmt:
		// err := d.SubmitBatch(...) — find the LHS holding the error: the
		// one aligned with the call in an n:n assignment, the last one when
		// the call's results are spread over the LHS.
		var errLHS ast.Expr
		if len(parent.Lhs) == len(parent.Rhs) {
			for i, rhs := range parent.Rhs {
				if rhs == call {
					errLHS = parent.Lhs[i]
				}
			}
		} else if len(parent.Rhs) == 1 && parent.Rhs[0] == call {
			errLHS = parent.Lhs[len(parent.Lhs)-1]
		}
		if errLHS == nil {
			return
		}
		if id, ok := errLHS.(*ast.Ident); ok && id.Name == "_" {
			pass.Reportf(call.Pos(), "batcherr",
				"%s error assigned to _; the BatchError carries the partial-completion state", calleeID.Name)
		}
	}
}

// isBatchErrorType reports whether the type expression denotes *BatchError
// (or BatchError) by name, across packages.
func isBatchErrorType(info *types.Info, e ast.Expr) bool {
	tv, ok := info.Types[e]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "BatchError"
}

func isErrorType(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "error" && named.Obj().Pkg() == nil
}
