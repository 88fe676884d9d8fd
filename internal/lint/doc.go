// Package lint is uflip's repo-invariant static-analysis suite: the engine
// behind cmd/uflint. It holds a small stdlib-only analysis framework (a
// go/types loader resolving imports through the compiler's export data, an
// Analyzer/Pass/Diagnostic driver, and the //uflint: annotation grammar)
// plus four repo-specific checks:
//
//   - detwall: simulation packages must not read the wall clock, draw from
//     the global math/rand source, or iterate maps with order-dependent
//     effects — the compile-time face of "byte-identical at any -parallel".
//   - cloneguard: every field of a struct with a Clone/Snapshot/Restore/
//     ResetFrom/CopyFrom/Audit method must be referenced in that method or
//     annotated //uflint:shared or //uflint:scratch — so a layer's state
//     struct cannot grow a field its one copy routine or its one validator
//     does not know, and a config or derived group is one annotated field.
//   - batchcontract: SubmitBatch/SubmitBatchRetry errors must be handled,
//     and *device.BatchError extracted with errors.As, never a type
//     assertion.
//   - allocfree (uflint -escapes): heap escapes inside //uflint:hotpath
//     functions are diffed against the committed allowlist in
//     internal/lint/testdata/hotpath.allow.
//
// The framework deliberately avoids golang.org/x/tools: the module stays
// dependency-free, and the loader leans on `go list -export` so analysis
// sees exactly what the compiler compiled.
package lint
