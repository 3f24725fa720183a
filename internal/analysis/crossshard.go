package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"

	"repro/internal/analysis/framework"
)

// crossshardShardedFields are the Sharded coordinator fields that carry
// shard-owned state, each mapped to the functions that may write it: nil
// means the shared allowlist (crossshardAllowed). The partition map, the
// per-(src,dst) mailboxes and their delivery statistics, and the run
// latch change only on the coordinator's own path — construction, the
// shard-local send, the window-barrier merge, and the run driver. The
// window pool's fields are narrower still: the counters belong to the
// window loop and the merge, the window description to the window loop,
// and the publication word, countdown and pool to the pool methods that
// implement the barrier. Concurrent shard advances stay race-free only
// because nothing else writes them.
var crossshardShardedFields = map[string][]string{
	"shards":    nil,
	"bounds":    nil,
	"owner":     nil,
	"outbox":    nil,
	"edges":     nil,
	"lookahead": nil,
	"workers":   nil,
	"ran":       nil,
	"stats":     {"loop", "deliver"},
	"runnable":  {"loop"},
	"end":       {"loop"},
	"win":       {"publish", "advance"},
	"pending":   {"runShards", "stopPool", "advance", "poolWorker"},
	"coord":     {"startPool"},
	"pool":      {"startPool", "stopPool"},
}

// crossshardMachineFields / crossshardEngineFields are the links that
// tie a machine (and its engine) to its shard: set once at partition
// time, read-only ever after — routing and deadlock reporting both key
// off them.
var crossshardMachineFields = map[string]bool{
	"sharded": true,
	"rank":    true,
}

var crossshardEngineFields = map[string]bool{
	"rank": true,
}

// crossshardClusterFields / crossshardSystemFields are the
// cthreads-layer equivalents: the shard-to-system table and the
// back-link ForkPost resolves remote processors through.
var crossshardClusterFields = map[string]bool{
	"systems": true,
}

var crossshardSystemFields = map[string]bool{
	"cluster": true,
}

// crossshardAllowed are the functions entitled to write shard-owned
// state that has no owners of its own: partition construction
// (NewSharded, NewCluster), the shard-local outbox append (send), the
// window-barrier mailbox merge (deliver), and the run driver (Run).
// Everything else — including the per-shard advance bodies and any
// future helper — must treat the coordinator as read-only, or route
// through these.
var crossshardAllowed = []string{"NewSharded", "NewCluster", "send", "deliver", "Run"}

// crossshardAtomicWrites are the sync/atomic methods that write their
// receiver: calling one on a protected field is a write to it.
var crossshardAtomicWrites = map[string]bool{
	"Store":          true,
	"Add":            true,
	"Swap":           true,
	"CompareAndSwap": true,
	"And":            true,
	"Or":             true,
}

// Crossshard restricts writes to the sharded coordinator's state (and
// the machine/engine/system fields linking a shard to it) to the shard
// advance path and the window-barrier merge. Shards run concurrently
// between barriers; a write to coordinator state from anywhere else is
// either a data race or a back door past the deterministic mailbox
// merge — both break the bit-for-bit serial-equivalence contract. A
// call to a writing sync/atomic method on a protected field counts as a
// write. Only packages sim and cthreads can name these unexported
// fields, but the check runs everywhere so fixtures and future layouts
// are covered.
// Test files are exempt.
var Crossshard = &framework.Analyzer{
	Name: "crossshard",
	Doc:  "restrict writes to shard-owned coordinator state to the shard advance path and window-barrier merge",
	Run:  runCrossshard,
}

func runCrossshard(pass *framework.Pass) error {
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCrossshardBody(pass, fd)
		}
	}
	return nil
}

// crossshardField resolves an assignment target to a protected field
// description ("Sharded.outbox", "Machine.rank") and the functions that
// may write it, or "" if the target is not protected. Index and
// selector expressions unwrap all the way down, so both
// s.outbox[src][dst] and s.edges[src][dst].Delivered match: mutating an
// element (or a field of one) mutates the protected structure.
func crossshardField(pass *framework.Pass, lhs ast.Expr) (string, []string) {
	for {
		lhs = ast.Unparen(lhs)
		switch e := lhs.(type) {
		case *ast.IndexExpr:
			lhs = e.X
		case *ast.SelectorExpr:
			t := pass.TypesInfo.TypeOf(e.X)
			if t == nil {
				return "", nil
			}
			name := e.Sel.Name
			if namedFrom(t, "sim", "Sharded") {
				if owners, ok := crossshardShardedFields[name]; ok {
					if owners == nil {
						owners = crossshardAllowed
					}
					return "Sharded." + name, owners
				}
			}
			switch {
			case namedFrom(t, "sim", "Machine") && crossshardMachineFields[name]:
				return "Machine." + name, crossshardAllowed
			case namedFrom(t, "sim", "Engine") && crossshardEngineFields[name]:
				return "Engine." + name, crossshardAllowed
			case namedFrom(t, "cthreads", "Cluster") && crossshardClusterFields[name]:
				return "Cluster." + name, crossshardAllowed
			case namedFrom(t, "cthreads", "System") && crossshardSystemFields[name]:
				return "System." + name, crossshardAllowed
			}
			lhs = e.X
		default:
			return "", nil
		}
	}
}

// crossshardAtomicTarget returns the receiver of call when call is a
// writing sync/atomic method (s.win.Store(v)), or nil.
func crossshardAtomicTarget(pass *framework.Pass, call *ast.CallExpr) ast.Expr {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok || !crossshardAtomicWrites[sel.Sel.Name] {
		return nil
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
		return nil
	}
	return sel.X
}

func checkCrossshardBody(pass *framework.Pass, fd *ast.FuncDecl) {
	check := func(target ast.Expr, suffix string) {
		field, owners := crossshardField(pass, target)
		if field == "" || slices.Contains(owners, fd.Name.Name) {
			return
		}
		pass.Reportf(target.Pos(),
			"write to %s%s outside the shard coordinator allowlist (%s is not one of %s): shard-owned state may change only on the shard advance path or the window-barrier merge",
			field, suffix, fd.Name.Name, strings.Join(owners, "/"))
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE {
				return true
			}
			for _, lhs := range n.Lhs {
				check(lhs, "")
			}
		case *ast.IncDecStmt:
			check(n.X, "")
		case *ast.CallExpr:
			if x := crossshardAtomicTarget(pass, n); x != nil {
				check(x, "")
			}
		case *ast.UnaryExpr:
			// &s.outbox[i][j] escaping would allow unchecked writes.
			if n.Op == token.AND {
				check(n.X, " (address taken)")
			}
		}
		return true
	})
}
