package analysis

import (
	"go/ast"
	"go/token"

	"repro/internal/analysis/framework"
)

// seqadvanceEngineFields are the Engine fields that define the
// simulated history: the clock and the tie-breaking sequence counter.
// The mechanism counters (Engine.stats) are diagnostics that every event
// path bumps, so they are not listed.
var seqadvanceEngineFields = map[string]bool{
	"now": true,
	"seq": true,
}

// seqadvanceMachineFields are the Machine module-accounting fields the
// spin fast-forward maintains in closed form.
var seqadvanceMachineFields = map[string]bool{
	"moduleFree": true,
	"queueDelay": true,
	"accesses":   true,
}

// seqadvanceAllowed are the functions entitled to advance time/order
// state: the engine's event loop (shared by Run, RunFor and the sharded
// window), RunFor's clamp of the clock to its deadline, the inline
// self-wakeup, event scheduling (including barrier message delivery),
// the module reservation path, the spin fast-forward, a spin-lane join
// (which takes its pop 0's seq) and passPops (which counts a lane
// member's pops as the clock passes them). A partial re-implementation
// of the inline and batched-spin fast paths
// anywhere else would have to write these fields from a new function —
// and trips this analyzer.
var seqadvanceAllowed = map[string]bool{
	"advanceInline":   true,
	"schedule":        true,
	"scheduleMessage": true,
	"runEvents":       true,
	"RunFor":          true,
	"fastForwardSpin": true,
	"joinLane":        true,
	"passPops":        true,
	"reserveAccess":   true,
}

// Seqadvance restricts writes to Engine.now/Engine.seq and the Machine
// module-accounting fields to the engine/spin allowlist, so fast-path
// optimizations cannot be partially re-implemented elsewhere and drift
// from the reference path. Only package sim can name these unexported
// fields, but the check runs everywhere so fixtures and future code
// layouts are covered. Test files are exempt.
var Seqadvance = &framework.Analyzer{
	Name: "seqadvance",
	Doc:  "restrict writes to engine clock/seq and module accounting to the engine allowlist",
	Run:  runSeqadvance,
}

func runSeqadvance(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if seqadvanceAllowed[fd.Name.Name] {
				continue
			}
			checkSeqadvanceBody(pass, fd)
		}
	}
	return nil
}

// protectedField resolves an assignment target to a protected field
// description ("Engine.now", "Machine.accesses"), or "" if the target
// is not protected. Index expressions unwrap to their base selector so
// m.accesses[i] matches.
func protectedField(pass *framework.Pass, lhs ast.Expr) string {
	lhs = ast.Unparen(lhs)
	if ix, ok := lhs.(*ast.IndexExpr); ok {
		lhs = ast.Unparen(ix.X)
	}
	sel, ok := lhs.(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	t := pass.TypesInfo.TypeOf(sel.X)
	if t == nil {
		return ""
	}
	name := sel.Sel.Name
	if namedFrom(t, "sim", "Engine") && seqadvanceEngineFields[name] {
		return "Engine." + name
	}
	if namedFrom(t, "sim", "Machine") && seqadvanceMachineFields[name] {
		return "Machine." + name
	}
	return ""
}

func checkSeqadvanceBody(pass *framework.Pass, fd *ast.FuncDecl) {
	report := func(pos token.Pos, field string) {
		pass.Reportf(pos,
			"write to %s outside the engine allowlist (%s is not one of advanceInline/schedule/scheduleMessage/runEvents/RunFor/fastForwardSpin/joinLane/passPops/reserveAccess): time and ordering state must advance only through the engine", field, fd.Name.Name)
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				if field := protectedField(pass, lhs); field != "" {
					report(lhs.Pos(), field)
				}
			}
		case *ast.IncDecStmt:
			if field := protectedField(pass, n.X); field != "" {
				report(n.X.Pos(), field)
			}
		case *ast.UnaryExpr:
			// &e.now escaping would allow unchecked writes.
			if n.Op == token.AND {
				if field := protectedField(pass, n.X); field != "" {
					report(n.X.Pos(), field+" (address taken)")
				}
			}
		}
		return true
	})
}
