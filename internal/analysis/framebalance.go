package analysis

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis/framework"
)

// Framebalance proves the profiler's conservation invariant by
// construction: every profile frame pushed in a function body is popped
// on every path out of it, or on none. The check is path-consistency,
// not zero-balance: protocol helpers legitimately carry a frame across
// function boundaries (locks' observe pushes "Lock:" which acquired
// later pops), so a *consistent* nonzero net is legal — what the
// analyzer rejects is a frame whose net count differs between two exit
// paths, which is exactly how the PR 9 combiner bug leaked a "submit:"
// frame on its error path and broke Total() == end - Registered().
// Pairing push and pop sites package-wide closes the cross-helper hole:
// deleting the only pop of a frame leaves every function
// self-consistent but the key one-sided.
var Framebalance = &framework.Analyzer{
	Name: "framebalance",
	Doc: "report profile frames whose push/pop balance differs between " +
		"paths out of a function",
	Run: runFramebalance,
}

func runFramebalance(pass *framework.Pass) error {
	// The profiler nil-guard idiom (`if p := t.Prof(); p != nil { ... }`)
	// wraps every push and pop independently; whether a profiler is
	// attached is fixed for a whole run, so the guards' outcomes
	// correlate and collapsing them is sound (see DESIGN.md).
	pushed, popped := checkBalance(pass, frameEvent, framework.CFGOptions{CollapseNilGuards: true},
		func(fn funcUnit, key string, net intv, pos token.Pos) {
			if net.lo != net.hi {
				pass.Reportf(pos,
					"profile frame %s is balanced on some paths out of %s but not all (net %s at return)",
					key, fn.name, net)
			}
		})
	reportUnpaired(pass, pushed, popped,
		"profile frame %s is pushed but popped nowhere in this package: the conservation invariant cannot hold",
		"profile frame %s is popped but pushed nowhere in this package")
	return nil
}

// frameEvent classifies a call as a frame push (+1) or pop (-1) of the
// frame its second argument names, or neither (delta 0).
func frameEvent(pass *framework.Pass, _ aliasMap, call *ast.CallExpr) (ast.Expr, int) {
	delta := 0
	switch calleeName(call) {
	case "Push":
		delta = 1
	case "Pop":
		delta = -1
	default:
		return nil, 0
	}
	recv := callReceiver(call)
	if recv == nil || len(call.Args) < 2 ||
		!namedFrom(pass.TypesInfo.Types[recv].Type, "profile", "ThreadProf") {
		return nil, 0
	}
	return call.Args[1], delta
}
