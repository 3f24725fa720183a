// Package analysis implements simlint: a suite of static analyzers that
// enforce the simulator's determinism, spin-batching and pairing
// invariants at the source level. Each analyzer stays only while it
// catches a seeded mutation that the test suite misses; EXPERIMENTS.md
// "What simlint catches that the tests miss" names each one's catch,
// and DESIGN.md "Statically enforced invariants" the invariant it
// guards.
//
// A finding can be suppressed — with a mandatory reason — by a comment
// on the offending line or the line directly above it:
//
//	//simlint:allow <analyzer> -- <reason>
package analysis

import (
	"go/ast"
	"go/types"

	"repro/internal/analysis/framework"
)

// All returns the full simlint suite in reporting order.
func All() []*framework.Analyzer {
	return []*framework.Analyzer{
		Walltime,
		Rawspin,
		Maporder,
		Virtualtime,
		Seqadvance,
		Crossshard,
		Framebalance,
		Lockpair,
	}
}

// simulatedPkgs names the packages whose code runs (or models code that
// runs) under the virtual clock. Matching is by final import-path
// element so the rules apply equally to the real tree
// ("repro/internal/sim") and to analyzer test fixtures ("walltime/sim").
var simulatedPkgs = map[string]bool{
	"sim":      true,
	"cthreads": true,
	"locks":    true,
	"active":   true,
	"core":     true,
	"monitor":  true,
	"tsp":      true,
	"sor":      true,
	"workload": true,
}

// simulatedPackage reports whether the import path denotes a simulated
// package.
func simulatedPackage(path string) bool {
	return simulatedPkgs[framework.PathBase(path)]
}

// namedFrom reports whether t is (a pointer to) the named type
// pkgBase.name, where pkgBase is compared against the final element of
// the defining package's import path.
func namedFrom(t types.Type, pkgBase, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	if obj == nil || obj.Pkg() == nil {
		return false
	}
	return obj.Name() == name && framework.PathBase(obj.Pkg().Path()) == pkgBase
}

// pkgFuncObj resolves a call expression to the *types.Func it invokes,
// or nil for builtins, conversions, and indirect calls.
func pkgFuncObj(info *types.Info, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := info.Uses[id].(*types.Func)
	return fn
}

// calleeName returns the bare name a call expression invokes: the
// selector name for method/package calls, the identifier otherwise.
func calleeName(call *ast.CallExpr) string {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name
	case *ast.SelectorExpr:
		return fun.Sel.Name
	}
	return ""
}
